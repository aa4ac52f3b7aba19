import csv
import io
import json
from itertools import combinations

import pytest

from circpeaks import complex_poset, tables
from circpeaks.cli import run
from circpeaks.complex_poset import (
    euler_characteristic,
    euler_characteristic_closed_form,
    f_polynomial,
    face_count,
    face_counts_by_recurrence,
    face_table,
    face_tuples,
    faces,
    moebius,
    printed_f_series_discrepancy,
)
from circpeaks.exact_algebra import ClosedFormMismatchError, ExactPoly, NonIntegralError
from circpeaks.peak_sets import PeakSet, is_valid, max_peak_count
from circpeaks.perm_core import ResourceLimitError
from circpeaks.poset_core import _mask, _moebius_from


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
def test_face_count_matches_enumeration(n, covered_by):
    covered_by("complex", "face-count-closed-form", n)


@pytest.mark.parametrize("n", range(3, 15))
def test_downward_closure_and_vertices(n, covered_by):
    covered_by("complex", "downward-closure", n)
    covered_by("complex", "vertices-and-dimension", n)


def test_f_polynomial_examples():
    assert f_polynomial(3) == ExactPoly((1, 1))
    assert f_polynomial(4) == ExactPoly((2, 1))
    assert f_polynomial(5) == ExactPoly((2, 3, 1))


def test_f_generating_series(covered_by):
    # The CLI reads the series off the f-vectors; the coefficient
    # recurrence of the corrected P(x,y) is the oracle of that output.
    covered_by("series", "f-series-coefficients", 60)


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
    # the recursion that complex/moebius-closed-form checks moebius against
    assert _moebius_from(_face_masks(3), 0)(_mask((3,))) == -1
    assert _moebius_from(_face_masks(5), 0)(_mask((3, 5))) == 1


def _face_masks(n):
    return {_mask(c) for c in face_tuples(n)}


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
    masks = _face_masks(n)
    for s in masks:
        shared = _moebius_from(masks, s)  # one memo for every t
        for t in masks:
            if s & t == s:
                assert shared(t) == _moebius_from(masks, s)(t)  # a fresh memo


@pytest.mark.parametrize("n", [8, 10, 14])
def test_moebius_oracle_validates_each_set_of_the_interval_once(n):
    bottom, top = PeakSet(n, ()), faces(n, max_peak_count(n) - 1)[-1]
    asked = []

    class CountingSet(set):
        def __contains__(self, m):
            asked.append(m)
            return super().__contains__(m)

    value = _moebius_from(CountingSet(_face_masks(n)), 0)(_mask(top.elements))
    # Each evaluated set (every set of the interval but the bottom, all of
    # them faces) asks once for each of its proper subsets.
    k = len(top.elements)
    assert len(asked) == 3 ** k - 2 ** k
    assert len(set(asked)) == 2 ** k - 1
    assert value == moebius(n, bottom, top)


def test_moebius_oracle_reads_the_face_container():
    masks = _face_masks(5)
    assert _moebius_from(masks, 0)(_mask((3, 5))) == 1
    # without the face {3}, [{}, {3,5}] is the chain {} < {5} < {3,5}
    assert _moebius_from(masks - {_mask((3,))}, 0)(_mask((3, 5))) == 0


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


def _product_structure_all_pairs(n, base_faces, big_faces):
    """The product-structure check with the order tested on every pair of faces."""
    base = [frozenset(s) for s in base_faces]
    big = [frozenset(s) for s in big_faces]
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
    faces_of = (face_tuples(n), face_tuples(n + 1))
    assert complex_poset._product_structure(n, *faces_of) \
        == _product_structure_all_pairs(n, *faces_of)


@pytest.mark.parametrize("n", [3, 4, 7, 8])
def test_product_structure_rejects_a_missing_face(n):
    faces_of = (face_tuples(n), face_tuples(n + 1)[:-1])
    assert not complex_poset._product_structure(n, *faces_of)
    assert not _product_structure_all_pairs(n, *faces_of)


@pytest.mark.parametrize("n", [3, 4, 7, 8])
def test_product_structure_rejects_an_added_non_face(n):
    non_face = PeakSet(n + 1, (3, 4))
    assert not is_valid(n + 1, non_face)
    faces_of = (face_tuples(n), face_tuples(n + 1) + [non_face.elements])
    assert not complex_poset._product_structure(n, *faces_of)
    assert not _product_structure_all_pairs(n, *faces_of)


def test_product_structure_order_test_is_live(monkeypatch):
    # Swapping the images of the vertices (3,) and (4,) of P_5 keeps the map
    # a bijection onto 2 x P_4, so only the cover test can see that the
    # lower cover (3,) of (3, 5) now maps outside the lower covers of (2, {3}).
    real = complex_poset._product_image
    bijections = []

    def swapped(n, base_index, masks):
        image = real(n, base_index, masks)
        a, b = complex_poset._mask((3,)), complex_poset._mask((4,))
        image[a], image[b] = image[b], image[a]
        bijections.append(set(image.values()) == set(real(n, base_index, masks).values()))
        return image

    faces_of = (face_tuples(4), face_tuples(5))
    assert complex_poset._product_structure(4, *faces_of)
    monkeypatch.setattr(complex_poset, "_product_image", swapped)
    assert not complex_poset._product_structure(4, *faces_of)
    assert bijections == [True]


def test_caps():
    with pytest.raises(ResourceLimitError):
        faces(15, 1)
    with pytest.raises(ResourceLimitError):
        face_tuples(15)  # so the product check stops at P_14 over P_13


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
