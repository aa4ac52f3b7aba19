"""h-vector and h-polynomial of the peak-set complex.

H_n(x) = P_n(x-1); the entries have the closed form

    h_{n,i} = (floor(n/2) - i)/(floor(n/2) + i) * C(floor(n/2) + i, floor(n/2))

which also counts Dyck-path left factors ending at a shifted endpoint, and
satisfy a parity recurrence with Catalan boundary terms.  H_n is read off
these integer entries, h_table(n), which is defined in circpeaks.tables,
the integer core, and re-exported here; the per-entry closed form
h_entry and the shift P_n(x-1) are its oracles.  Each recurrence is one
walk that yields its value at every n from 3 up, as in complex_poset.
The printed H(x,y) form is cross-multiplied here; the corrected one is
checked against h_polynomial by its coefficient recurrence, in the
series suite of circpeaks.checks.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import accumulate, count

from .complex_poset import _polynomial_walk, _printed_series_discrepancy, _walk_at
from .exact_algebra import (
    ExactPoly,
    binomial,
    catalan_number,
    epsilon_odd,
    exact_quotient,
)
from .peak_sets import count_left_factors_to
# Re-exported from the integer core, which defines them.
from .tables import h_table, max_peak_count


def h_polynomial(n: int) -> ExactPoly:
    """H_n(x) = P_n(x - 1), read off the closed-form h-vector (reversed).

    The Taylor shift poly_shift(f_polynomial(n)) is its oracle.
    """
    return ExactPoly(reversed(h_table(n)))


def h_polynomial_by_recurrence(n: int) -> ExactPoly:
    """H_n(x) from the parity recurrence (test oracle).

    Even m: H_{m+1} = x H_m; odd m: (x-1) H_{m+1} = x H_m - 2/(m+1) C(m-1,(m-1)/2),
    the latter solved by exact division by (x-1).  This is the last value
    of _polynomial_walk at a = x; hvector/h-closed-recurrence-shift reads it once.
    """
    return _walk_at(_polynomial_walk(ExactPoly.x()), n)


def h_entry(n: int, i: int) -> int:
    """Closed-form h_{n,i}."""
    if i < 0 or i > max_peak_count(n):
        raise ValueError(f"i={i} outside [0, {max_peak_count(n)}]")
    half = n // 2
    if i == half:  # the (half - i) factor vanishes before the binomial grows
        return 0
    return exact_quotient((half - i) * binomial(half + i, half), half + i,
                          f"h_entry({n}, {i})")


def h_recurrence_table(n: int) -> tuple[int, ...]:
    """h-vector built purely from the recurrence (test oracle).

    h_{m+1,0} = h_{m,0}; h_{m+1,i} = h_{m,i} + eps(m) h_{m+1,i-1} for
    1 <= i <= floor(m/2) - 1; h_{m+1,floor(m/2)} = eps(m) c_{floor(m/2)};
    initial row (h_{3,0}, h_{3,1}) = (1, 0).  The last row of one walk,
    _h_recurrence_walk, which yields every n from 3 up and is read once per check.
    """
    return _walk_at(_h_recurrence_walk(), n)


def _h_recurrence_walk() -> Iterator[tuple[int, ...]]:
    row = (1, 0)
    for m in count(3):
        yield row
        eps, top = epsilon_odd(m), m // 2
        row = (*accumulate(row[:top], lambda prev, h: h + eps * prev), eps * catalan_number(top))


def printed_h_series_discrepancy() -> dict | None:
    """Cross-multiplied check of the commonly printed H(x,y) closed form.

    Tests (S + y^2) * x (x - 1 - x y^2) against
    [(x^2-1) y^2 - (x-1) y^2 C(y^2)] (1 + x y); returns None if it holds,
    else a report with the first mismatching y-order.
    """
    return _printed_series_discrepancy(
        ExactPoly.x(), h_polynomial,
        "H(x,y) printed form (cross-multiplied)",
        "inherits the f-series misprint under x -> x-1; the shipped "
        "series uses the corrected form (x-1) - x^2 y^2 denominator",
    )


def h_dyck_oracle(n: int, i: int) -> int:
    """Brute-force left-factor count for the endpoint of the h-entry law.

    Counts left factors of length floor(n/2)+i-1 ending at height
    floor(n/2)-i-1 (zero when the height is negative or of wrong parity).
    """
    if i < 0 or i > max_peak_count(n):
        raise ValueError(f"i={i} outside [0, {max_peak_count(n)}]")
    half = n // 2
    return count_left_factors_to(half + i - 1, half - i - 1)
