"""The hvector suite: the h-vector closed form against recurrences,
the shifted f-polynomial and the Dyck endpoint oracle."""

from __future__ import annotations

from .. import complex_poset, exact_algebra, hvector, peak_sets
from ..exact_algebra import ExactPoly
from ..verify import _left_factor_downs, _registry


def check_h_consistency(ns: range) -> tuple[bool, str]:
    walks = zip(ns, hvector._h_recurrence_walk(),
                complex_poset._polynomial_walk(ExactPoly.x()))
    for n, row, poly in walks:
        shifted = exact_algebra.poly_shift(complex_poset.f_polynomial(n))
        top = peak_sets.max_peak_count(n)
        closed = tuple(hvector.h_entry(n, i) for i in range(top + 1))
        from_poly = tuple(shifted.coeff(top - i) for i in range(top + 1))
        if closed != from_poly:
            return False, f"closed form != shifted f-polynomial at n={n}"
        if hvector.h_table(n) != closed:
            return False, f"h_table != h_entry row at n={n}"
        if hvector.h_polynomial(n) != shifted:
            return False, f"h_polynomial != shifted f-polynomial at n={n}"
        if row != closed:
            return False, f"recurrence != closed form at n={n}"
        if poly != shifted:
            return False, f"polynomial recurrence mismatch at n={n}"
    return True, "h closed form = recurrence = P_n(x-1) coefficients"


def check_h_dyck(ns: range) -> tuple[bool, str]:
    # n//2+i-1 letters with i D's end at height n//2-i-1, none if negative
    for n in ns:
        for i in range(0, peak_sets.max_peak_count(n) + 1):
            if hvector.h_entry(n, i) != _left_factor_downs(n // 2 + i - 1)[i]:
                return False, f"Dyck endpoint count mismatch at n={n}, i={i}"
    return True, "h entries = left-factor endpoint counts"


def check_h_parity_shift(ns: range) -> tuple[bool, str]:
    for n in ns[::2]:  # ns starts at an even n
        if hvector.h_polynomial(n + 1) != ExactPoly.x() * hvector.h_polynomial(n):
            return False, f"even-n shift failed at n={n}"
    return True, "H_{n+1} = x H_n for even n"


def check_h_sum(ns: range) -> tuple[bool, str]:
    for n in ns:
        if hvector.h_polynomial(n).eval(1) != complex_poset.f_polynomial(n).eval(0):
            return False, f"H_n(1) != P_n(0) at n={n}"
    return True, "H_n(1) = P_n(0) (top face count)"


CHECKS, RANGES = _registry([
    ("h-closed-recurrence-shift", check_h_consistency, 3, 60),
    ("h-dyck-endpoint-oracle", check_h_dyck, 3, 16, 20),
    ("h-even-parity-shift", check_h_parity_shift, 4, 20),
    ("h-sum-identity", check_h_sum, 3, 40),
])
