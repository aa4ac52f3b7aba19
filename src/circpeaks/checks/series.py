"""The series suite: the corrected generating functions P(x,y) and
H(x,y), checked against the f- and h-polynomials by the three-term
recurrence of their coefficients, and the printed forms against the
pinned reports that the series command prints."""

from __future__ import annotations

from collections.abc import Callable

from .. import complex_poset, hvector
from ..exact_algebra import ExactPoly, catalan_number
from ..verify import _registry
from . import PRINTED_FORM_REPORTS


def _first_failing_n(a: ExactPoly, truth: Callable[[int], ExactPoly], last: int) -> int | None:
    """The first n <= last at which the corrected closed form fails, or None.

    With S = sum_{n>=3} truth(n) y^n + y^2 and G = a - C(y^2), the closed
    form S = y^2 G (1 + a y) / ((a-1) - a^2 y^2) holds through y^last
    exactly when (a-1) S_n - a^2 S_{n-2} = G_{n-2} + a G_{n-3} for every
    n <= last, as a-1 is no zero divisor in Z[x].  G_0 = a-1, G_2m = -c_m,
    the odd G_k are 0 and every index below 0 reads 0, so no division is
    done.  The first n that fails is the first whose truth(n) is not the
    y^n coefficient of the closed form.
    """
    zero, one = ExactPoly(()), ExactPoly.constant(1)
    a_minus_one, a_squared = a - one, a * a
    s = [zero, zero, one, *(truth(n) for n in range(3, last + 1))]

    def g(k: int) -> ExactPoly:
        if k < 0 or k % 2:
            return zero
        return a_minus_one if k == 0 else ExactPoly.constant(-catalan_number(k // 2))

    for n in range(last + 1):
        lhs = a_minus_one * s[n] - (a_squared * s[n - 2] if n >= 2 else zero)
        if lhs != g(n - 2) + a * g(n - 3):
            return n
    return None


def check_f_series(ns: range) -> tuple[bool, str]:
    n = _first_failing_n(ExactPoly((1, 1)), complex_poset.f_polynomial, ns[-1])
    if n is not None:
        return False, f"series coefficient != f-polynomial at n={n}"
    return True, "corrected P(x,y) matches f-polynomials"


def check_h_series(ns: range) -> tuple[bool, str]:
    n = _first_failing_n(ExactPoly.x(), hvector.h_polynomial, ns[-1])
    if n is not None:
        return False, f"series coefficient != h-polynomial at n={n}"
    return True, "corrected H(x,y) matches h-polynomials"


def _check_printed_form(which: str, report: dict | None) -> tuple[bool, str]:
    """The cross-multiplied report of the printed form, against what series prints."""
    form = f"printed {which}(x,y) form"
    if report != PRINTED_FORM_REPORTS[which]:
        return False, (f"series --which {which} prints a pinned {form} report "
                       "that differs from the cross-multiplied one")
    # Both pinned reports are discrepancies, so a report that matches is one.
    return True, (
        f"{form} DISCREPANCY documented: first mismatch at "
        f"y^{report['first_mismatch_y_order']}; {report['note']}"
    )


def check_printed_f_form(_ns: None) -> tuple[bool, str]:
    return _check_printed_form("P", complex_poset.printed_f_series_discrepancy())


def check_printed_h_form(_ns: None) -> tuple[bool, str]:
    return _check_printed_form("H", hvector.printed_h_series_discrepancy())


CHECKS, RANGES = _registry([
    ("f-series-coefficients", check_f_series, 3, 60, 200),
    ("h-series-coefficients", check_h_series, 3, 60, 200),
    ("printed-f-series-form", check_printed_f_form),
    ("printed-h-series-form", check_printed_h_form),
])
