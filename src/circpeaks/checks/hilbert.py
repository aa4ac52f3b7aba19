"""The hilbert suite: the Hilbert data of A and B against the monomial
oracles and the series recurrences, and the nonvanishing criterion."""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

from .. import exact_algebra, hilbert_algebras, peak_sets
from ..poset_core import _mask
from ..verify import _registry, _valid_subsets


def check_dim_a_oracle(ns: range) -> tuple[bool, str]:
    for n in ns:
        for i in range(0, 6):
            if hilbert_algebras.dim_a(n, i) != \
                    hilbert_algebras.standard_monomial_oracle(n, "A", i):
                return False, f"dim_a mismatch at n={n}, degree={i}"
    return True, "dim_a = monomial oracle, degree <= 5"


def check_dim_b_oracle(ns: range) -> tuple[bool, str]:
    for n in ns:
        for i in range(0, peak_sets.max_peak_count(n) + 3):
            if hilbert_algebras.dim_b(n, i) != \
                    hilbert_algebras.standard_monomial_oracle(n, "B", i):
                return False, f"dim_b mismatch at n={n}, degree={i}"
    return True, "dim_b = squarefree monomial oracle, all degrees"


def check_hilbert_polynomial(ns: range) -> tuple[bool, str]:
    for n in ns:
        p = hilbert_algebras.hilbert_polynomial_a(n)
        for i in range(0, 9):
            if p.eval(i) != hilbert_algebras.dim_a(n, i):
                return False, f"Hilbert polynomial mismatch at n={n}, i={i}"
    return True, "Hilbert polynomial of A matches dims, 0 <= i <= 8"


def check_numerator_form(ns: range) -> tuple[bool, str]:
    for n in ns:
        numerator, e = hilbert_algebras.numerator_a(n)
        if e != (n + 1) // 2:
            return False, f"unexpected exponent at n={n}"
        if any(type(c) is not int for c in numerator.coeffs):
            return False, f"non-integer numerator at n={n}"
        # re-expand numerator/(1-x)^e to order 12
        expanded = [
            sum(numerator.coeff(j) *
                exact_algebra.binomial(k - j + e - 1, e - 1)
                for j in range(min(k, numerator.degree) + 1))
            for k in range(13)
        ]
        if expanded != list(hilbert_algebras.hilbert_series_a(n, 12)):
            return False, f"rational form does not reproduce the series at n={n}"
    return True, "numerator/(1-x)^floor((n+1)/2) reproduces the A-series"


def check_hilbert_initial(ns: range) -> tuple[bool, str]:
    # the coefficient of x^i in 1/(1-x)^2 (n = 3) and (1+x)/(1-x)^2 (n = 4) is (n-2)i + 1
    for n, form in zip(ns, ("1/(1-x)^2", "(1+x)/(1-x)^2")):
        if hilbert_algebras.hilbert_series_a(n, 12) != tuple((n - 2) * i + 1 for i in range(13)):
            return False, f"A-series at n={n} is not {form}"
    return True, "initial A-series 1/(1-x)^2 (n=3) and (1+x)/(1-x)^2 (n=4) reproduced to order 12"


def check_series_recurrences(ns: range) -> tuple[bool, str]:
    for n in ns:
        if not hilbert_algebras.verify_series_recurrence_a(n):
            relation = "odd-n derivative relation" if n % 2 else "even-n series recurrence"
            return False, f"{relation} failed at n={n}"
    return True, "A-series derivative recurrences hold as truncated identities"


def check_numerator_recurrences(ns: range) -> tuple[bool, str]:
    for n in ns:
        if not hilbert_algebras.verify_numerator_recurrence_a(n):
            relation = "odd-n numerator relation" if n % 2 else "even-n numerator recurrence"
            return False, f"{relation} failed at n={n}"
    return True, "numerator recurrences hold exactly"


def check_series_b(ns: range) -> tuple[bool, str]:
    for n in ns:
        s = hilbert_algebras.hilbert_series_b(n)
        top = peak_sets.max_peak_count(n)
        if s.degree > top + 1 or hilbert_algebras.dim_b(n, top + 2) != 0:
            return False, f"B-series degree too large at n={n}"
        if s.coeff(1) != peak_sets.count_valid(n):
            return False, f"B-series x^1 coefficient wrong at n={n}"
    return True, "B-series degree <= D+1, dim_b(n, D+2) = 0 and face count at x^1"


def _face_multisets(count: int) -> list[tuple[int, ...]]:
    """Every multiset of 1-4 of count faces, as an ascending tuple of face indices."""
    return [c for size in range(1, 5) for c in combinations_with_replacement(range(count), size)]


def check_nonvanishing_criterion(ns: range) -> tuple[bool, str]:
    total = 0
    for n in ns:
        masks = [_mask(s) for s in _valid_subsets(n)]
        multisets = _face_multisets(len(masks))
        total += len(multisets)
        for idxs in multisets:
            support = [masks[k] for k in idxs]
            comparable = all(a & b in (a, b) for a, b in combinations(set(support), 2))
            # a strict subset has the smaller bitmask, so ascending masks
            # list a chain in order if the support is one
            chain = sorted(support)
            sortable = all(a & b == a for a, b in zip(chain, chain[1:]))
            if comparable != sortable:
                return False, f"nonvanishing criterion failed at n={n}, idxs={list(idxs)}"
    return True, f"multichain <=> pairwise-comparable support, all {total} multisets of 1-4 faces"


CHECKS, RANGES = _registry([
    ("dim-a-monomial-oracle", check_dim_a_oracle, 3, 8),
    ("dim-b-monomial-oracle", check_dim_b_oracle, 3, 8),
    ("hilbert-polynomial-a", check_hilbert_polynomial, 3, 20),
    ("numerator-rational-form", check_numerator_form, 3, 14),
    ("initial-a-series", check_hilbert_initial, 3, 4),
    ("a-series-recurrences", check_series_recurrences, 3, 12),
    ("numerator-recurrences", check_numerator_recurrences, 3, 12),
    ("b-series-shape", check_series_b, 3, 14),
    ("nonvanishing-criterion", check_nonvanishing_criterion, 3, 6),
])
