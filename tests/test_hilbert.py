from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb

import pytest

from circpeaks import hilbert_algebras, tables
from circpeaks.checks.hilbert import (
    check_numerator_form,
    check_numerator_recurrences,
    check_series_recurrences,
)
from circpeaks.complex_poset import face_tuples
from circpeaks.exact_algebra import ExactPoly, NonIntegralError
from circpeaks.hilbert_algebras import (
    MONOMIAL_DEGREE_CAP,
    dim_a,
    hilbert_polynomial_a,
    hilbert_series_a,
    hilbert_series_b,
    numerator_a,
    standard_monomial_oracle,
)
from circpeaks.peak_sets import count_valid
from circpeaks.perm_core import ResourceLimitError


def test_dim_a_examples():
    assert dim_a(3, 0) == 1
    assert dim_a(3, 1) == 2
    assert dim_a(5, 1) == 6
    assert dim_a(5, 2) == 15
    assert hilbert_series_a(5, 4) == (1, 6, 15, 28, 45)


def test_dim_a_rejects_nonintegral_f_polynomial(monkeypatch):
    monkeypatch.setattr(tables, "face_table", lambda n: (1, 1, Fraction(1, 2)))
    with pytest.raises(NonIntegralError, match="dim_a"):
        dim_a(5, 1)
    with pytest.raises(NonIntegralError):
        numerator_a(5)


def test_dim_a_counts_multichains(covered_by):
    # the monomial oracle counts the multisets of pairwise comparable faces
    covered_by("hilbert", "dim-a-monomial-oracle", 8)


def test_dim_a_degree_one_counts_faces():
    for n in range(3, 21):
        assert dim_a(n, 1) == count_valid(n)


@pytest.mark.parametrize("n", range(3, 9))
def test_dim_a_matches_monomial_oracle(n, covered_by):
    covered_by("hilbert", "dim-a-monomial-oracle", n)


@pytest.mark.parametrize("n", range(3, 9))
def test_dim_b_matches_monomial_oracle(n, covered_by):
    covered_by("hilbert", "dim-b-monomial-oracle", n)


def test_hilbert_polynomial_a_agrees_with_dims(covered_by):
    covered_by("hilbert", "hilbert-polynomial-a", 20)


def test_hilbert_polynomial_a_examples():
    assert hilbert_polynomial_a(5) == ExactPoly((1, 3, 2))
    assert hilbert_polynomial_a(3) == ExactPoly((1, 1))


def test_numerator_a_examples():
    assert numerator_a(5) == (ExactPoly((1, 3)), 3)
    assert numerator_a(3) == (ExactPoly((1,)), 2)


def test_numerator_a_reproduces_series(covered_by):
    # numerator / (1-x)^e expanded against the graded dimensions, n <= 14
    covered_by("hilbert", "numerator-rational-form", 14)


@pytest.mark.parametrize("n", [200, 489])
def test_numerator_a_reproduces_series_through_degree_e(n):
    # Through degree e, past the degree of N, so the series pins every
    # coefficient of N: at the registry check's cap, n = 200, and past it.
    numerator, e = numerator_a(n)
    assert e == (n + 1) // 2 and numerator.degree < e
    expanded = [sum(numerator.coeff(j) * comb(k - j + e - 1, e - 1) for j in range(k + 1))
                for k in range(e + 1)]
    assert expanded == list(hilbert_series_a(n, e))


def test_hilbert_series_b_examples():
    assert hilbert_series_b(5) == ExactPoly((1, 6, 9, 4))
    assert hilbert_series_b(3) == ExactPoly((1, 2, 1))
    assert hilbert_series_b(4) == ExactPoly((1, 3, 2))


def test_b_is_finite_dimensional(covered_by):
    covered_by("hilbert", "b-series-shape", 14)


@pytest.mark.parametrize("n", range(3, 13))
def test_series_recurrence_a(n, covered_by):
    covered_by("hilbert", "a-series-recurrences", n)


@pytest.mark.parametrize("n", range(3, 13))
def test_numerator_recurrence_a(n, covered_by):
    covered_by("hilbert", "numerator-recurrences", n)


def test_series_recurrence_check_is_live(monkeypatch):
    # One A-series coefficient of n = 6 off by one: every identity that
    # reads Hilb_6 fails, and n = 4, which reads Hilb_4 and Hilb_5, holds.
    def bumped(n, order):
        dims = list(tables.hilbert_series_a(n, order))
        if n == 6:
            dims[3] += 1
        return tuple(dims)

    monkeypatch.setattr(hilbert_algebras, "hilbert_series_a", bumped)
    verdicts = [check_series_recurrences(range(n, n + 1))[0] for n in range(3, 7)]
    assert verdicts == [False, True, False, False]


def test_numerator_recurrence_check_is_live(monkeypatch):
    # The same for one numerator coefficient of n = 6.
    true_numerator = hilbert_algebras.numerator_a

    def bumped(n):
        a, e = true_numerator(n)
        return (a + ExactPoly((0, 0, 1)) if n == 6 else a), e

    monkeypatch.setattr(hilbert_algebras, "numerator_a", bumped)
    verdicts = [check_numerator_recurrences(range(n, n + 1))[0] for n in range(3, 7)]
    assert verdicts == [False, True, False, False]


def test_numerator_form_check_reads_every_coefficient(monkeypatch):
    # N/(1-x)^2 at n = 3 is compared through order 12: a term x^12 shows in
    # the series, and a term x^13 past the order fails without being read.
    true_numerator = hilbert_algebras.numerator_a
    for power, detail in ((12, "rational form does not reproduce the series at n=3"),
                          (13, "numerator degree 13 past order 12 at n=3")):
        def bumped(n, power=power):
            a, e = true_numerator(n)
            return a + ExactPoly((0,) * power + (1,)), e

        monkeypatch.setattr(hilbert_algebras, "numerator_a", bumped)
        assert check_numerator_form(range(3, 4)) == (False, detail)


def test_monomial_oracle_caps():
    with pytest.raises(ResourceLimitError):
        standard_monomial_oracle(5, "A", MONOMIAL_DEGREE_CAP + 1)
    with pytest.raises(ValueError):
        standard_monomial_oracle(5, "Q", 2)
    with pytest.raises(ResourceLimitError, match="would enumerate"):
        standard_monomial_oracle(14, "A", 3)


def _surviving_monomials(n, algebra, degree):
    """Every index multiset (set, for B) of the degree, kept iff its faces are pairwise comparable."""
    fs = [frozenset(c) for c in face_tuples(n)]
    pick = combinations_with_replacement if algebra == "A" else combinations
    return sum(all(a <= b or b <= a for a, b in combinations([fs[j] for j in set(idxs)], 2))
               for idxs in pick(range(len(fs)), degree))


@pytest.mark.parametrize("algebra", ["A", "B"])
@pytest.mark.parametrize("n", range(3, 7))
def test_monomial_oracle_matches_a_plain_enumeration(n, algebra):
    for degree in range(0, 5):
        assert standard_monomial_oracle(n, algebra, degree) == \
            _surviving_monomials(n, algebra, degree), degree


@pytest.mark.parametrize("n", list(range(3, 41)) + [200, 489])
def test_hilbert_data_a_matches_its_parts(n):
    # tables.hilbert_a_integers reads all three off one f-vector, as tuples.
    form, poly = numerator_a(n), hilbert_polynomial_a(n)
    for order in (0, 4, (n + 1) // 2 + 9):
        dims, numerator, exponent, f = tables.hilbert_a_integers(n, order)
        assert dims == hilbert_series_a(n, order)
        assert (numerator, exponent) == (form[0].coeffs, form[1])
        assert f == poly.coeffs
