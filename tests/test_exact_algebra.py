from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circpeaks import tables
from circpeaks.chains_zeta import zeta_polynomial
from circpeaks.complex_poset import _polynomial_walk, f_polynomial
from circpeaks.exact_algebra import (
    ExactPoly,
    InexactDivisionError,
    NonIntegralError,
    PolySeries,
    binomial,
    catalan_number,
    multinomial,
    poly_shift,
)
from circpeaks.hilbert_algebras import hilbert_polynomial_a, hilbert_series_b, numerator_a
from circpeaks.hvector import h_polynomial

integers = st.integers(min_value=-10, max_value=10)
polys = st.lists(integers, min_size=0, max_size=31).map(ExactPoly)
non_integral = st.fractions(min_value=-10, max_value=10, max_denominator=7).filter(
    lambda c: c.denominator != 1)


def test_eval_examples():
    assert ExactPoly((1, 1)).eval(-1) == 0
    assert ExactPoly((1, 1)).eval(Fraction(1, 2)) == Fraction(3, 2)
    # P_5(x) = x^2 + 3x + 2 has root -1
    assert ExactPoly((2, 3, 1)).eval(-1) == 0


def test_integral_coefficients_are_ints_and_others_raise():
    p = ExactPoly((1, Fraction(4, 2), True, 2.0, Fraction(0), 0))
    assert p.coeffs == (1, 2, 1, 2)
    assert [type(c) for c in p.coeffs] == [int] * 4
    assert type(p.coeff(7)) is int
    for c in (Fraction(1, 3), 0.5):
        with pytest.raises(NonIntegralError, match="not an integer"):
            ExactPoly((1, c))


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
    # 4x^2 + 1 = (2x + 1)(2x - 1) + 2: every step divides by 2.
    q, r = ExactPoly((1, 0, 4)).divmod(ExactPoly((1, 2)))
    assert q.coeffs == (-1, 2) and r.coeffs == (2,)
    assert q * ExactPoly((1, 2)) + r == ExactPoly((1, 0, 4))
    # x^2 + 1 by 2x + 1: the first step would need 1/2.
    with pytest.raises(InexactDivisionError, match="1 is not a multiple of 2"):
        ExactPoly((1, 0, 1)).divmod(ExactPoly((1, 2)))


def test_divmod_by_x_minus_one_stays_in_integers():
    # x^4 + 2x^3 - 3x - 6 = (x - 1)(x^3 + 3x^2 + 3x) - 6
    p, d = ExactPoly((-6, -3, 0, 2, 1)), ExactPoly((-1, 1))
    expected = (ExactPoly((0, 3, 3, 1)), ExactPoly((-6,)))
    q, r = p.divmod(d)
    assert (q, r) == expected
    assert all(type(c) is int for c in q.coeffs + r.coeffs)
    # 2x - 2 does not divide the leading x^4.
    with pytest.raises(InexactDivisionError):
        p.divmod(d.scale(2))
    # H_n by the parity recurrence: exact_div by x - 1 at every odd step
    for n, h in zip(range(3, 21), _polynomial_walk(ExactPoly.x())):
        assert all(type(c) is int for c in h.coeffs)


def test_non_integral_inputs_raise():
    half, p = Fraction(1, 2), ExactPoly((1, 1))
    for build in (lambda: ExactPoly((0.5,)), lambda: ExactPoly.constant(half),
                  lambda: p.scale(half), lambda: p.compose_linear(1, half)):
        with pytest.raises(NonIntegralError, match="not an integer"):
            build()
    # An evaluation point is not a coefficient.
    assert p.eval(half) == Fraction(3, 2)


@pytest.mark.parametrize("n", range(3, 61))
def test_library_polynomials_have_int_coefficients(n):
    for p in (f_polynomial(n), h_polynomial(n), zeta_polynomial(n), hilbert_polynomial_a(n),
              numerator_a(n)[0], hilbert_series_b(n)):
        assert all(type(c) is int for c in p.coeffs), p


def test_shift_examples():
    assert poly_shift(ExactPoly((1, 1))) == ExactPoly((0, 1))
    assert poly_shift(ExactPoly((1,))) == ExactPoly((1,))
    assert poly_shift(ExactPoly((2, 3, 1))) == ExactPoly((0, 1, 1))


@given(polys, polys, integers, non_integral)
@settings(max_examples=60, deadline=None)
def test_eval_is_multiplicative(p, q, t, c):
    assert (p * q).eval(t) == p.eval(t) * q.eval(t)
    assert type((p * q).eval(t)) is int
    # A non-integral factor leaves Z[x].
    with pytest.raises(NonIntegralError):
        p * ExactPoly.constant(c)


@given(polys, non_integral)
@settings(max_examples=60, deadline=None)
def test_shift_round_trip(p, c):
    assert poly_shift(p.compose_linear(1, 1)) == p
    assert poly_shift(p).compose_linear(1, 1) == p
    # A shift by a non-integral amount leaves Z[x].
    with pytest.raises(NonIntegralError):
        p.compose_linear(1, c)


def _compose_linear_reference(p, a, b):
    """p(a*x + b) by Horner on ExactPoly values: a product and a sum per
    coefficient, the form compose_linear had before its int-list Horner."""
    lin = ExactPoly((b, a))
    acc = ExactPoly(())
    for c in reversed(p.coeffs):
        acc = acc * lin + ExactPoly.constant(c)
    return acc


@given(polys, integers, integers)
@example(ExactPoly(()), 3, -2)
@example(ExactPoly((1, -2, 3)), 0, 5)
@example(ExactPoly((1, -2, 3)), 4, 0)
@example(ExactPoly((1, -2, 3)), 0, 0)
@settings(max_examples=100, deadline=None)
def test_compose_linear_matches_polynomial_horner(p, a, b):
    q = p.compose_linear(a, b)
    assert q == _compose_linear_reference(p, a, b)
    assert all(type(c) is int for c in q.coeffs)


@given(st.lists(integers, max_size=10))
@example([])
@example([0, 0])
@example([3, -1, 2, 0, 0])
@settings(max_examples=100, deadline=None)
def test_shift_down_matches_compose_linear(c):
    # tables._shift_down keeps the length of its input, trailing zeros too.
    shifted = tables._shift_down(c)
    assert len(shifted) == len(c)
    expected = ExactPoly(c).compose_linear(1, -1).coeffs
    assert shifted == list(expected) + [0] * (len(c) - len(expected))


monic = st.lists(integers, max_size=6).map(lambda cs: ExactPoly(cs + [1]))


@given(polys, monic, st.integers(min_value=2, max_value=5))
@settings(max_examples=60, deadline=None)
def test_divmod_reconstructs(p, d, lead):
    with pytest.raises(ZeroDivisionError):
        p.divmod(ExactPoly(()))
    q, r = p.divmod(d)
    assert q * d + r == p
    assert r.degree < d.degree
    # Pseudo-division: lead^m * p divides step by step by lead * d.
    wide, m = d.scale(lead), max(p.degree - d.degree + 1, 0)
    q, r = p.scale(lead ** m).divmod(wide)
    assert q * wide + r == p.scale(lead ** m) and r.degree < d.degree
    if p.degree >= d.degree and p.coeffs[-1] % lead:
        with pytest.raises(InexactDivisionError):
            p.divmod(wide)


def test_exact_div_rejects_remainder():
    with pytest.raises(InexactDivisionError):
        ExactPoly((1, 1)).exact_div(ExactPoly((0, 1)))


def test_catalan_number_values():
    assert [catalan_number(m) for m in range(5)] == [1, 1, 2, 5, 14]


def test_catalan_convolution():
    cs = [catalan_number(m) for m in range(22)]
    for m in range(21):
        assert cs[m + 1] == sum(cs[j] * cs[m - j] for j in range(m + 1))


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
