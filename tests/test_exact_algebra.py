from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circpeaks.exact_algebra import (
    ExactPoly,
    InexactDivisionError,
    PolySeries,
    binomial,
    catalan_number,
    catalan_series,
    multinomial,
    poly_shift,
    poly_shift_inverse,
)

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=7
)
polys = st.lists(rationals, min_size=0, max_size=31).map(ExactPoly)


def test_eval_examples():
    assert ExactPoly((1, 1)).eval(-1) == 0
    assert ExactPoly((1, 1)).eval(Fraction(1, 2)) == Fraction(3, 2)
    # P_5(x) = x^2 + 3x + 2 has root -1
    assert ExactPoly((2, 3, 1)).eval(-1) == 0


def test_shift_examples():
    assert poly_shift(ExactPoly((1, 1))) == ExactPoly((0, 1))
    assert poly_shift(ExactPoly((1,))) == ExactPoly((1,))
    assert poly_shift(ExactPoly((2, 3, 1))) == ExactPoly((0, 1, 1))


@given(polys, polys, rationals)
@settings(max_examples=60, deadline=None)
def test_eval_is_multiplicative(p, q, t):
    assert (p * q).eval(t) == p.eval(t) * q.eval(t)


@given(polys)
@settings(max_examples=60, deadline=None)
def test_shift_round_trip(p):
    assert poly_shift(poly_shift_inverse(p)) == p
    assert poly_shift_inverse(poly_shift(p)) == p


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_divmod_reconstructs(p, d):
    if d.is_zero():
        with pytest.raises(ZeroDivisionError):
            p.divmod(d)
        return
    q, r = p.divmod(d)
    assert q * d + r == p
    assert r.degree < d.degree or r.is_zero()


def test_exact_div_rejects_remainder():
    with pytest.raises(InexactDivisionError):
        ExactPoly((1, 1)).exact_div(ExactPoly((0, 1)))


def test_catalan_series_values():
    assert [int(c.eval(0)) for c in catalan_series(4).coeffs] == [1, 1, 2, 5, 14]
    assert catalan_number(3) == 5


def test_catalan_convolution():
    cs = [catalan_number(m) for m in range(22)]
    for m in range(21):
        assert cs[m + 1] == sum(cs[j] * cs[m - j] for j in range(m + 1))


def test_sqrt_identity_via_catalan():
    # (1 - 2y C(y))^2 = 1 - 4y exactly under truncation at order 20
    order = 20
    c = catalan_series(order)
    one = PolySeries.from_rationals([1], order)
    two_y_c = c.shift_y(1) * PolySeries.from_rationals([2], order)
    root = one - two_y_c
    square = root * root
    expect = PolySeries.from_rationals([1, -4], order)
    assert all(square.coeffs[j] == expect.coeffs[j] for j in range(order + 1))


def test_series_division_round_trip():
    order = 10
    a = PolySeries([ExactPoly((1, 2)), ExactPoly((0, 1)), ExactPoly((3,))], order)
    b = PolySeries([ExactPoly((1,)), ExactPoly((1, 1))], order)
    assert ((a * b).divide(b)).coeffs == a.coeffs


def test_series_division_by_nonunit_rejected():
    order = 5
    a = PolySeries([ExactPoly((1,))], order)
    b = PolySeries([ExactPoly(()), ExactPoly((1,))], order)
    with pytest.raises(InexactDivisionError):
        a.divide(b)


def test_binomial_outside_range_is_zero():
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0
    assert binomial(5, 2) == 10


def test_multinomial():
    assert multinomial((3,)) == 1
    assert multinomial((1, 2)) == 3
    assert multinomial((0, 3)) == 1
    assert multinomial((2, 2, 2)) == 90
