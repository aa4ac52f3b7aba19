from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from circpeaks import tables
from circpeaks.chains_zeta import multichain_oracle
from circpeaks.complex_poset import face_tuples
from circpeaks.exact_algebra import ExactPoly, InexactDivisionError, NonIntegralError
from circpeaks.hilbert_algebras import (
    MONOMIAL_DEGREE_CAP,
    dim_a,
    dim_b,
    hilbert_polynomial_a,
    hilbert_series_a,
    hilbert_series_b,
    numerator_a,
    standard_monomial_oracle,
    verify_numerator_recurrence_a,
    verify_series_recurrence_a,
)
from circpeaks.peak_sets import count_valid, max_peak_count
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


def test_numerator_a_rejects_nonterminating_series(monkeypatch):
    monkeypatch.setattr(tables, "face_table", lambda n: (1,) * 6)
    with pytest.raises(InexactDivisionError, match="does not terminate"):
        numerator_a(5)


def test_dim_a_counts_multichains():
    for n in range(3, 9):
        for i in range(0, 6):
            assert dim_a(n, i) == multichain_oracle(n, i)


def test_dim_a_degree_one_counts_faces():
    for n in range(3, 21):
        assert dim_a(n, 1) == count_valid(n)


@pytest.mark.parametrize("n", range(3, 9))
def test_dim_a_matches_monomial_oracle(n):
    for d in range(0, 4):
        assert dim_a(n, d) == standard_monomial_oracle(n, "A", d)


@pytest.mark.parametrize("n", range(3, 9))
def test_dim_b_matches_monomial_oracle(n):
    for d in range(0, 5):
        assert dim_b(n, d) == standard_monomial_oracle(n, "B", d)


def test_hilbert_polynomial_a_agrees_with_dims():
    for n in range(3, 21):
        hp = hilbert_polynomial_a(n)
        for i in range(0, 8):
            assert hp.eval(i) == dim_a(n, i)


def test_hilbert_polynomial_a_examples():
    assert hilbert_polynomial_a(5) == ExactPoly((1, 3, 2))
    assert hilbert_polynomial_a(3) == ExactPoly((1, 1))


def test_numerator_a_examples():
    assert numerator_a(5) == (ExactPoly((1, 3)), 3)
    assert numerator_a(3) == (ExactPoly((1,)), 2)


def test_numerator_a_reproduces_series():
    # expand numerator / (1-x)^e and compare against graded dimensions
    order = 10
    for n in range(3, 15):
        numerator, exponent = numerator_a(n)
        series = [0] * (order + 1)
        for k, c in enumerate(numerator.coeffs):
            if k <= order:
                series[k] = c
        for _ in range(exponent):
            for k in range(1, order + 1):
                series[k] += series[k - 1]
        assert tuple(series) == tuple(hilbert_series_a(n, order))


def test_hilbert_series_b_examples():
    assert hilbert_series_b(5) == ExactPoly((1, 6, 9, 4))
    assert hilbert_series_b(3) == ExactPoly((1, 2, 1))
    assert hilbert_series_b(4) == ExactPoly((1, 3, 2))


def test_b_is_finite_dimensional():
    for n in range(3, 15):
        top = max_peak_count(n)
        assert dim_b(n, top + 2) == 0
        assert hilbert_series_b(n).degree <= top + 1


@pytest.mark.parametrize("n", range(3, 13))
def test_series_recurrence_a(n):
    assert verify_series_recurrence_a(n)


@pytest.mark.parametrize("n", range(3, 13))
def test_numerator_recurrence_a(n):
    assert verify_numerator_recurrence_a(n)


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
