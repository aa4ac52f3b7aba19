"""The hilbert suite: the Hilbert data of A and B against the monomial
oracles, A's rational form, the derivative recurrences of the A-series
and of its numerator, which are stated here and nowhere in the library,
and the nonvanishing criterion."""

from __future__ import annotations

from itertools import accumulate, combinations, combinations_with_replacement

from .. import hilbert_algebras, peak_sets
from ..exact_algebra import ExactPoly
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
        # re-expand numerator/(1-x)^e through degree max(12, e), past the
        # degree of N, so that the series pins every coefficient of N: each
        # division by 1-x is a running prefix sum of N padded to the order
        order = max(12, e)
        if numerator.degree > order:
            return False, f"numerator degree {numerator.degree} past order {order} at n={n}"
        expanded = [*numerator.coeffs, *[0] * (order + 1 - len(numerator.coeffs))]
        for _ in range(e):
            expanded = list(accumulate(expanded))
        if expanded != list(hilbert_algebras.hilbert_series_a(n, order)):
            return False, f"rational form does not reproduce the series at n={n}"
    return True, "numerator/(1-x)^floor((n+1)/2) reproduces the A-series"


def check_hilbert_initial(ns: range) -> tuple[bool, str]:
    # the coefficient of x^i in 1/(1-x)^2 (n = 3) and (1+x)/(1-x)^2 (n = 4) is (n-2)i + 1
    forms = list(zip(ns, ("1/(1-x)^2", "(1+x)/(1-x)^2")))
    for n, form in forms:
        if hilbert_algebras.hilbert_series_a(n, 12) != tuple((n - 2) * i + 1 for i in range(13)):
            return False, f"A-series at n={n} is not {form}"
    run = " and ".join(f"{form} (n={n})" for n, form in forms)
    return True, f"initial A-series {run} reproduced to order 12"


# The derivative relations of the A-series and of its numerator, checked
# as exact truncated-series and polynomial identities; production paths
# never use them.


def check_series_recurrences(ns: range) -> tuple[bool, str]:
    # Through order 12, where x d/dx multiplies the coefficient of x^k by k.
    # Even n: Hilb_{n+1} = x Hilb'_n + Hilb_n.
    # Odd n:  Hilb_{n+3} = x Hilb'_{n+2} + Hilb_{n+2} + (4n/(n+3)) x Hilb'_{n+1}
    #         - (8n/(n+3)) x Hilb'_n - (4n/(n+3)) x^2 Hilb''_n,
    # compared in integers after multiplying both sides by n+3.
    for n in ns:
        s0, s1 = (hilbert_algebras.hilbert_series_a(m, 12) for m in (n, n + 1))
        if n % 2 == 0:
            holds = s1 == tuple(k * c + c for k, c in enumerate(s0))
        else:
            s2, s3 = (hilbert_algebras.hilbert_series_a(m, 12) for m in (n + 2, n + 3))
            holds = all(
                (n + 3) * s3[k] == (n + 3) * (k * s2[k] + s2[k])
                + 4 * n * (k * s1[k] - 2 * k * s0[k] - k * (k - 1) * s0[k])
                for k in range(13))
        if not holds:
            relation = "odd-n derivative relation" if n % 2 else "even-n series recurrence"
            return False, f"{relation} failed at n={n}"
    return True, "A-series derivative recurrences hold as truncated identities"


def check_numerator_recurrences(ns: range) -> tuple[bool, str]:
    # Even n: A_{n+1} = x(1-x) A'_n + [((n/2)-1) x + 1] A_n.
    # Odd n:  the printed four-term relation with first and second
    # derivatives, multiplied through by (1-x) on the left and by n+3, so
    # that its coefficients 4n/(n+3), 2n(n+1)/(n+3) and n(n+1)/(n+3) are
    # compared in integers.
    x, one_minus_x = ExactPoly.x(), ExactPoly((1, -1))
    for n in ns:
        if n % 2 == 0:
            a, lhs = (hilbert_algebras.numerator_a(m)[0] for m in (n, n + 1))
            holds = lhs == x * one_minus_x * a.derivative() + ExactPoly((1, n // 2 - 1)) * a
        else:
            a0, a1, a2, a3 = (hilbert_algebras.numerator_a(m)[0] for m in range(n, n + 4))
            holds = (one_minus_x * a3).scale(n + 3) == (
                (x * one_minus_x * a2.derivative() + ExactPoly((1, (n + 1) // 2)) * a2).scale(n + 3)
                + (x * one_minus_x * one_minus_x * a1.derivative()).scale(4 * n)
                + (x * one_minus_x * a1).scale(2 * n * (n + 1))
                - (x * one_minus_x * ExactPoly((2, n - 1)) * a0.derivative()).scale(4 * n)
                - (x * ExactPoly((4, n - 1)) * a0).scale(n * (n + 1))
                - (x * x * one_minus_x * one_minus_x * a0.derivative().derivative()).scale(4 * n)
            )
        if not holds:
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
    ("numerator-rational-form", check_numerator_form, 3, 14, 200),
    ("initial-a-series", check_hilbert_initial, 3, 4),
    ("a-series-recurrences", check_series_recurrences, 3, 12),
    ("numerator-recurrences", check_numerator_recurrences, 3, 12),
    ("b-series-shape", check_series_b, 3, 14),
    ("nonvanishing-criterion", check_nonvanishing_criterion, 3, 6),
])
