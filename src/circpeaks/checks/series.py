"""The series suite: the corrected generating series against the
f- and h-polynomials, and the printed forms against the pinned reports
that the series command prints."""

from __future__ import annotations

from .. import complex_poset, hvector
from ..verify import _registry
from . import PRINTED_FORM_REPORTS


def check_f_series(ns: range) -> tuple[bool, str]:
    series = complex_poset.f_generating_series(ns[-1])
    if not series.coeffs[2].is_zero():
        return False, "nonzero y^2 coefficient"
    for n in ns:
        if series.coeffs[n] != complex_poset.f_polynomial(n):
            return False, f"series coefficient != f-polynomial at n={n}"
    return True, "corrected P(x,y) matches f-polynomials"


def check_h_series(ns: range) -> tuple[bool, str]:
    series = hvector.h_generating_series(ns[-1])
    for n in ns:
        if series.coeffs[n] != hvector.h_polynomial(n):
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
    ("f-series-coefficients", check_f_series, 3, 20),
    ("h-series-coefficients", check_h_series, 3, 20),
    ("printed-f-series-form", check_printed_f_form),
    ("printed-h-series-form", check_printed_h_form),
])
