from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circpeaks import exact_algebra
from circpeaks.chains_zeta import zeta_polynomial
from circpeaks.complex_poset import f_polynomial, f_polynomial_by_recurrence
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
from circpeaks.hilbert_algebras import hilbert_polynomial_a, hilbert_series_b, numerator_a
from circpeaks.hvector import h_polynomial, h_polynomial_by_recurrence

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=7
)
polys = st.lists(rationals, min_size=0, max_size=31).map(ExactPoly)


def test_eval_examples():
    assert ExactPoly((1, 1)).eval(-1) == 0
    assert ExactPoly((1, 1)).eval(Fraction(1, 2)) == Fraction(3, 2)
    # P_5(x) = x^2 + 3x + 2 has root -1
    assert ExactPoly((2, 3, 1)).eval(-1) == 0


def test_integral_coefficients_are_ints_and_others_fractions():
    p = ExactPoly((1, Fraction(4, 2), Fraction(1, 3), True, Fraction(0), 0))
    assert p.coeffs == (1, 2, Fraction(1, 3), 1)
    assert [type(c) for c in p.coeffs] == [int, int, Fraction, int]
    assert type(p.coeff(7)) is int


def test_int_built_and_fraction_built_polys_are_one_value():
    a = ExactPoly((1, 2, 3))
    b = ExactPoly((Fraction(1), Fraction(4, 2), Fraction(3)))
    assert a == b and hash(a) == hash(b) and str(a) == str(b)
    assert b.coeffs == (1, 2, 3) and all(type(c) is int for c in b.coeffs)
    assert hash(a) == hash(((1, 2, 3),))


def test_integer_arithmetic_stays_integer():
    p, q = ExactPoly((1, -2, 3)), ExactPoly((0, 5))
    for r in (p + q, p - q, p * q, -p, p.scale(3), p.derivative(),
              poly_shift(p), p.exact_div(ExactPoly((1, -2, 3)))):
        assert all(type(c) is int for c in r.coeffs)
    assert type(p.eval(4)) is int and p.eval(4) == 41


def test_divmod_by_a_non_monic_integer_divisor_is_exact():
    q, r = ExactPoly((1, 0, 1)).divmod(ExactPoly((1, 2)))
    assert q.coeffs == (Fraction(-1, 4), Fraction(1, 2))
    assert r.coeffs == (Fraction(5, 4),)
    assert all(type(c) is Fraction for c in q.coeffs + r.coeffs)
    assert q * ExactPoly((1, 2)) + r == ExactPoly((1, 0, 1))


def test_divmod_by_x_minus_one_stays_in_integers(monkeypatch):
    # x^4 + 2x^3 - 3x - 6 = (x - 1)(x^3 + 3x^2 + 3x) - 6
    p, d = ExactPoly((-6, -3, 0, 2, 1)), ExactPoly((-1, 1))
    expected = (ExactPoly((0, 3, 3, 1)), ExactPoly((-6,)))

    def no_fraction(*args):
        raise AssertionError("divmod built a Fraction for an exact integer step")

    monkeypatch.setattr(exact_algebra, "Fraction", no_fraction)
    q, r = p.divmod(d)
    assert (q, r) == expected
    assert all(type(c) is int for c in q.coeffs + r.coeffs)
    for n in (3, 4, 9, 20):
        h = h_polynomial_by_recurrence(n)  # exact_div by x - 1 at every odd step
        assert all(type(c) is int for c in h.coeffs)


def test_non_integral_inputs_are_unchanged():
    assert ExactPoly((0.5,)).coeffs == (Fraction(1, 2),)
    assert type(ExactPoly((0.5,)).coeffs[0]) is Fraction
    value = ExactPoly((1, 1)).eval(Fraction(1, 2))
    assert value == Fraction(3, 2) and type(value) is Fraction


@pytest.mark.parametrize("n", range(3, 61))
def test_library_polynomials_have_int_coefficients(n):
    for p in (f_polynomial(n), f_polynomial_by_recurrence(n), h_polynomial(n),
              h_polynomial_by_recurrence(n), zeta_polynomial(n), hilbert_polynomial_a(n),
              numerator_a(n).numerator, hilbert_series_b(n)):
        assert all(type(c) is int for c in p.coeffs), p


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
