"""The series suite: the generating functions P(x,y) and H(x,y), checked
against the f- and h-polynomials by the three-term recurrence of their
coefficients.  One kernel walks it for the corrected forms, which must
hold, and for the printed forms, whose first mismatch must be the one
pinned in the reports that the series command prints."""

from __future__ import annotations

from collections.abc import Callable

from .. import complex_poset, hvector
from ..exact_algebra import ExactPoly, catalan_number
from ..verify import _registry
from . import PRINTED_FORM_REPORTS

_ONE = ExactPoly.constant(1)


def _first_mismatch(a: ExactPoly, lead: ExactPoly, k_scale: ExactPoly,
                    truth: Callable[[int], ExactPoly],
                    last: int) -> tuple[int, ExactPoly, ExactPoly] | None:
    """The first y-order n <= last at which a closed form fails, with both
    coefficients of its cross-multiplied identity, or None.

    With S = sum_{n>=3} truth(n) y^n + y^2, both forms of P (a = x+1) and
    of H (a = x) read S (lead - a^2 y^2) = K y^2 (1 + a y), with K_0 = lead,
    K_2m = -k_scale c_m and every odd K_k 0:

        corrected  lead = a-1       k_scale = 1
        printed    lead = a(a-1)    k_scale = a-1

    So the y^n coefficients lead S_n - a^2 S_{n-2} and K_{n-2} + a K_{n-3}
    must agree for every n, where S_1 = 0 and S_2 = 1; below n = 3 they
    agree whatever truth is.  No division is done.  As lead is no zero
    divisor in Z[x], the first n that fails is the first whose truth(n) is
    not the y^n coefficient of the form.
    """
    a_squared = a * a
    s = [ExactPoly(()), ExactPoly(()), _ONE, *(truth(n) for n in range(3, last + 1))]

    def k(j: int) -> ExactPoly:
        if j % 2:
            return ExactPoly(())
        return lead if j == 0 else k_scale.scale(-catalan_number(j // 2))

    for n in range(3, last + 1):
        lhs = lead * s[n] - a_squared * s[n - 2]
        rhs = k(n - 2) + a * k(n - 3)
        if lhs != rhs:
            return n, lhs, rhs
    return None


def check_f_series(ns: range) -> tuple[bool, str]:
    a = ExactPoly((1, 1))
    found = _first_mismatch(a, a - _ONE, _ONE, complex_poset.f_polynomial, ns[-1])
    if found is not None:
        return False, f"series coefficient != f-polynomial at n={found[0]}"
    return True, "corrected P(x,y) matches f-polynomials"


def check_h_series(ns: range) -> tuple[bool, str]:
    a = ExactPoly.x()
    found = _first_mismatch(a, a - _ONE, _ONE, hvector.h_polynomial, ns[-1])
    if found is not None:
        return False, f"series coefficient != h-polynomial at n={found[0]}"
    return True, "corrected H(x,y) matches h-polynomials"


def _check_printed_form(which: str, a: ExactPoly,
                        truth: Callable[[int], ExactPoly]) -> tuple[bool, str]:
    """The printed form's first mismatch, walked to the pinned y-order,
    against the report that series prints."""
    report = PRINTED_FORM_REPORTS[which]
    order = report["first_mismatch_y_order"]
    found = _first_mismatch(a, a * (a - _ONE), a - _ONE, truth, order)
    form = f"printed {which}(x,y) form"
    if found is None or (found[0], str(found[1]), str(found[2])) != (
            order, report["lhs_coefficient"], report["rhs_coefficient"]):
        return False, (f"series --which {which} prints a pinned {form} report "
                       "that differs from the cross-multiplied one")
    return True, f"{form} DISCREPANCY documented: first mismatch at y^{order}; {report['note']}"


def check_printed_f_form(_ns: None) -> tuple[bool, str]:
    return _check_printed_form("P", ExactPoly((1, 1)), complex_poset.f_polynomial)


def check_printed_h_form(_ns: None) -> tuple[bool, str]:
    return _check_printed_form("H", ExactPoly.x(), hvector.h_polynomial)


CHECKS, RANGES = _registry([
    ("f-series-coefficients", check_f_series, 3, 60, 200),
    ("h-series-coefficients", check_h_series, 3, 60, 200),
    ("printed-f-series-form", check_printed_f_form),
    ("printed-h-series-form", check_printed_h_form),
])
