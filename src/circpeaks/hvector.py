"""h-vector and h-polynomial of the peak-set complex.

H_n(x) = P_n(x-1); the entries have the closed form

    h_{n,i} = (floor(n/2) - i)/(floor(n/2) + i) * C(floor(n/2) + i, floor(n/2))

which also counts Dyck-path left factors ending at a shifted endpoint
(hvector/h-dyck-endpoint-oracle), and satisfy a parity recurrence with
Catalan boundary terms.  H_n is read off these integer entries,
h_table(n), which is defined in circpeaks.tables, the integer core, and
re-exported here; the per-entry closed form h_entry, the shift
P_n(x-1) and the parity recurrence are its oracles.  Each recurrence is
one walk that yields its value at every n from 3 up, as in
complex_poset: the h-vector walk here, and the H_n walk, which is
complex_poset._polynomial_walk at a = x.
The corrected and the printed H(x,y) forms are checked against
h_polynomial by their coefficient recurrence, in the series suite of
circpeaks.checks.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import accumulate, count

from .exact_algebra import (
    ExactPoly,
    binomial,
    catalan_number,
    exact_quotient,
)
# Re-exported from the integer core, which defines them.
from .tables import h_table, max_peak_count


def h_polynomial(n: int) -> ExactPoly:
    """H_n(x) = P_n(x - 1), read off the closed-form h-vector (reversed).

    The Taylor shift poly_shift(f_polynomial(n)) is its oracle.
    """
    return ExactPoly(reversed(h_table(n)))


def h_entry(n: int, i: int) -> int:
    """Closed-form h_{n,i}."""
    if i < 0 or i > max_peak_count(n):
        raise ValueError(f"i={i} outside [0, {max_peak_count(n)}]")
    half = n // 2
    if i == half:  # the (half - i) factor vanishes before the binomial grows
        return 0
    return exact_quotient((half - i) * binomial(half + i, half), half + i,
                          f"h_entry({n}, {i})")


def _h_recurrence_walk() -> Iterator[tuple[int, ...]]:
    """The h-vector by the parity recurrence, yielding its row at every n from 3 up.

    h_{m+1,0} = h_{m,0}; h_{m+1,i} = h_{m,i} + eps(m) h_{m+1,i-1} for
    1 <= i <= floor(m/2) - 1; h_{m+1,floor(m/2)} = eps(m) c_{floor(m/2)};
    initial row (h_{3,0}, h_{3,1}) = (1, 0).
    """
    row = (1, 0)
    for m in count(3):
        yield row
        eps, top = m % 2, m // 2
        row = (*accumulate(row[:top], lambda prev, h: h + eps * prev), eps * catalan_number(top))
