"""The simplicial complex / poset of realizable circular-peak sets.

Faces of dimension i are the realizable sets of size i+1; the closed form

    p_{n,i} = (n-2i-2)/(i+1) * C(n-1, i)      (p_{n,-1} = 1)

is the production path, evaluated by exact integer division in
circpeaks.tables, with the per-entry closed form face_count, the
enumeration and the parity recurrence kept here as independent oracles.
face_table(n), the integer f-vector, and the Euler characteristic are
defined in circpeaks.tables and re-exported here; f_polynomial is its
ExactPoly view.  The face enumeration face_tuples and down_sets, the one
builder of the order relation of the face poset, are defined in the
integer-only circpeaks.poset_core and re-exported here; faces wraps the
tuples in PeakSet.
Also here: the builders written in a, with P at a = x+1 and H = P(x-1)
at a = x, of the parity-recurrence polynomials and of the corrected
generating series, with the one cross-multiplied check of the printed
forms; the Moebius function; and the product-structure check.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import combinations

from .exact_algebra import ExactPoly, PolySeries, binomial, catalan_series
from .peak_sets import PeakSet, is_valid
# Re-exported from the integer-only face poset, which defines them.
from .poset_core import _check_poset_cap, _mask, _submasks, down_sets, face_tuples
# Re-exported from the integer core, which defines them.
from .tables import (
    POSET_CAP,
    ResourceLimitError,
    euler_characteristic,
    euler_characteristic_closed_form,
    exact_quotient,
    face_table,
    max_peak_count,
)


# The y-order through which the printed P(x,y) and H(x,y) forms are
# cross-multiplied against the f- and h-polynomials.
PRINTED_FORM_ORDER = 12


def faces(n: int, dim: int) -> list[PeakSet]:
    """All faces of the given dimension, lexicographic by element sequence."""
    return [PeakSet(n, c) for c in face_tuples(n, dim)]


def face_count(n: int, dim: int) -> int:
    """Closed-form p_{n,dim}; zero outside the dimension range."""
    if n < 3:
        raise ValueError("n must be >= 3")
    if dim == -1:
        return 1
    if dim < -1 or dim > max_peak_count(n) - 1:
        return 0
    return exact_quotient((n - 2 * dim - 2) * binomial(n - 1, dim), dim + 1,
                          f"face_count({n}, {dim})")


def face_counts_by_recurrence(n: int) -> tuple[int, ...]:
    """f-vector built purely from the parity recurrence (test oracle).

    Even m:  p_{m+1,i} = p_{m,i-1} + p_{m,i} for interior i, with the
    boundary rows p_{m+1,-1} = p_{m,-1} and p_{m+1,m/2-1} = p_{m,m/2-2};
    odd m:   p_{m+1,i} = p_{m,i-1} + p_{m,i} throughout.
    Initial row (p_{3,-1}, p_{3,0}) = (1, 1).
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    row = [1, 1]  # indices -1, 0
    for m in range(3, n):
        def p(i: int) -> int:
            return row[i + 1] if -1 <= i <= len(row) - 2 else 0
        top = (m + 1 - 1) // 2 - 1  # top dimension of the (m+1)-complex
        row = [p(-1)] + [p(i - 1) + p(i) for i in range(0, top + 1)] \
            if m % 2 else \
            [p(-1)] + [p(i - 1) + p(i) for i in range(0, top)] + [p(top - 1)]
    return tuple(row)


def f_polynomial(n: int) -> ExactPoly:
    """P_n(x) = sum_i p_{n,i-1} x^{D-i} with D = floor((n-1)/2): the f-vector, reversed."""
    return ExactPoly(reversed(face_table(n)))


def f_polynomial_by_recurrence(n: int) -> ExactPoly:
    """P_n(x) from the parity recurrence (test oracle).

    Even m: P_{m+1} = (1+x)P_m; odd m: x P_{m+1} = (1+x)P_m - 2/(m+1) C(m-1,(m-1)/2),
    the latter solved by exact division by x.
    """
    return _polynomial_by_recurrence(ExactPoly((1, 1)), n)


def _polynomial_by_recurrence(a: ExactPoly, n: int) -> ExactPoly:
    """The parity recurrence in a, from p = a at n = 3.

    Even m: p <- a p; odd m: p <- (a p - c_m) / (a - 1), divided exactly,
    with c_m = 2/(m+1) C(m-1,(m-1)/2).  a = 1+x gives P_n; a = x gives
    H_n = P_n(x-1).
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    p, a_minus_one = a, a - ExactPoly.constant(1)
    for m in range(3, n):
        if m % 2 == 0:
            p = a * p
        else:
            c = exact_quotient(2 * binomial(m - 1, (m - 1) // 2), m + 1,
                               f"the Catalan term 2/(m+1) C(m-1,(m-1)/2) at m={m}")
            p = (a * p - ExactPoly.constant(c)).exact_div(a_minus_one)
    return p


def _corrected_series(a: ExactPoly, order_n: int) -> PolySeries:
    """y^2 [a - C(y^2)] (1 + a y) / ((a-1) - a^2 y^2) - y^2 through y^order_n.

    a = x+1 gives P(x,y); a = x gives H(x,y) = P(x-1,y).  Every y^n
    coefficient must have x-degree at most floor((order_n-1)/2), the
    largest D of the truncated range, or ValueError is raised.
    """
    if order_n < 3:
        raise ValueError("order_n must be >= 3")
    zero, one = ExactPoly(()), ExactPoly.constant(1)
    cy2 = catalan_series(order_n).substitute_y_squared()
    numer = (PolySeries([a], order_n) - cy2).shift_y(2) * PolySeries([one, a], order_n)
    denom = PolySeries([a - one, zero, (a * a).scale(-1)], order_n)
    series = numer.divide(denom) - PolySeries([zero, zero, one], order_n)
    if any(c.degree > (order_n - 1) // 2 for c in series.coeffs):
        raise ValueError("x-degree exceeds requested truncation order")
    return series


def _printed_series_discrepancy(a: ExactPoly, truth: Callable[[int], ExactPoly],
                                formula: str, note: str) -> dict | None:
    """Cross-multiplied check of a printed closed form, as a function of a.

    Tests (S + y^2)(a(a-1) - a^2 y^2) = [(a^2-1) - (a-1) C(y^2)] y^2 (1 + a y)
    through y^PRINTED_FORM_ORDER, with S = sum_{n>=3} truth(n) y^n.
    Returns None if the identity holds, else a report naming the first
    failing y-order with both coefficient polynomials.
    """
    order_n = PRINTED_FORM_ORDER
    zero, one = ExactPoly(()), ExactPoly.constant(1)
    s = PolySeries([truth(n) if n >= 3 else zero for n in range(order_n + 1)], order_n)
    y2 = PolySeries([zero, zero, one], order_n)
    lhs = (s + y2) * PolySeries([a * (a - one), zero, (a * a).scale(-1)], order_n)
    cy2 = catalan_series(order_n).substitute_y_squared()
    numer = PolySeries([a * a - one], order_n) - PolySeries([a - one], order_n) * cy2
    rhs = numer.shift_y(2) * PolySeries([one, a], order_n)
    for j, (left, right) in enumerate(zip(lhs.coeffs, rhs.coeffs)):
        if left != right:
            return {
                "formula": formula,
                "first_mismatch_y_order": j,
                "lhs_coefficient": str(left),
                "rhs_coefficient": str(right),
                "note": note,
            }
    return None


def f_generating_series(order_n: int) -> PolySeries:
    """Truncated expansion of P(x,y) = sum_n P_n(x) y^n.

    Uses the corrected closed form

        P(x,y) = y^2 [(x+1) - C(y^2)] (1 + (1+x) y) / (x - (1+x)^2 y^2) - y^2,

    the printed form being off by a factor in its odd-step derivation (see
    printed_f_series_discrepancy, which documents the mismatch exactly).
    coeffs[n] of the result is P_n(x).
    """
    return _corrected_series(ExactPoly((1, 1)), order_n)


def printed_f_series_discrepancy() -> dict | None:
    """Check the commonly printed P(x,y) closed form by cross-multiplication.

    Tests whether (S + y^2) * (x - (x+1)y^2)(x+1) equals
    [x y^2 (x+2) - x y^2 C(y^2)] (1 + y + x y) with S the ground-truth
    series of f-polynomials.  Returns None if the identity holds, else a
    report naming the first failing y-order with both coefficient
    polynomials.
    """
    return _printed_series_discrepancy(
        ExactPoly((1, 1)), f_polynomial,
        "P(x,y) printed form (cross-multiplied)",
        "printed denominator x-(x+1)y^2 should be x-(x+1)^2 y^2 and the "
        "numerator factor x(x+2)-xC(y^2) should be (x+1)((x+1)-C(y^2)); "
        "the shipped series uses the corrected form, which matches the "
        "recurrence-generated polynomials on the whole tested range",
    )


def moebius(n: int, s: PeakSet, t: PeakSet) -> int:
    """mu(s, t) = (-1)^(|t|-|s|) for s a subface of t."""
    _require_interval(n, s, t)
    return -1 if (len(t.elements) - len(s.elements)) % 2 else 1


def _require_interval(n: int, s: PeakSet, t: PeakSet) -> None:
    for u in (s, t):
        if not is_valid(n, u):
            raise ValueError(f"{u.elements} is not a face of the complex for n={n}")
    if not set(s.elements).issubset(t.elements):
        raise ValueError(f"{s.elements} is not contained in {t.elements}")


def moebius_recursive_oracle(n: int, s: PeakSet, t: PeakSet) -> int:
    """Standard recursive Moebius computation over the face interval.

    mu(s, u) = -sum of mu(s, v) over the faces s <= v < u.  Within one
    call each set of the interval is validated once and each face's
    value computed once; both are memoized by set.
    """
    _require_interval(n, s, t)
    return _moebius_from(n, frozenset(s.elements))(frozenset(t.elements))


def _moebius_from(n: int, bottom: frozenset) -> Callable[[frozenset], int]:
    """u -> mu(bottom, u) by the recursion, for faces u containing bottom.

    The returned function memoizes, by set, which sets are faces and the
    value of each face it has evaluated, so the calls for every upper face
    over one bottom share them.  It does not check its argument.
    """
    values = {bottom: 1}  # mu(bottom, u) of each face u evaluated so far
    is_face: dict[frozenset, bool] = {}

    def mu(upper: frozenset) -> int:
        if upper not in values:
            total = 0
            between = sorted(upper - bottom)
            for k in range(len(between)):
                for extra in combinations(between, k):
                    u = bottom.union(extra)
                    if u not in is_face:
                        is_face[u] = is_valid(n, u)
                    if is_face[u]:
                        total += mu(u)
            values[upper] = -total
        return values[upper]

    return mu


def verify_product_structure(n: int) -> bool:
    """Check the product decomposition of the (n+1)-poset over the n-poset.

    The candidate map sends a face S of the (n+1)-complex to
    (2 if n+1 in S else 1, S minus {n+1}).  For even n it must be an order
    isomorphism onto the full product 2 x P_n; for odd n, onto the product
    minus the slice (carrying n+1) over the top-dimensional faces.
    """
    _check_poset_cap(n + 1)
    base, big = face_tuples(n), face_tuples(n + 1)
    return _product_structure(n, base, down_sets(base), big, down_sets(big))


def _product_structure(n: int, base, base_down, big, big_down) -> bool:
    """verify_product_structure on the faces of P_n, P_{n+1} and their down_sets.

    Once the map is a bijection onto its target, "S <= S' iff image(S) <=
    image(S')" for all pairs is the same as: for each S', the image of the
    down-set of S' is the down-set of image(S') in the target.  That reads
    O(m 2^D) list entries, m = |P_{n+1}|, not the O(m^2) pairs.  The
    pair (a, base[j]) of the product is coded as the int 2j + a - 1.
    """
    index = {T: j for j, T in enumerate(base)}
    image = []
    for S in big:
        # faces are ascending tuples, so n+1 is the last element of a face holding it
        a, T = (2, S[:-1]) if S and S[-1] == n + 1 else (1, S)
        if T not in index:  # not a face of P_n, so outside the target
            return False
        image.append(2 * index[T] + a - 1)
    target = set(range(2 * len(base)))
    if n % 2:
        target -= {2 * j + 1 for j, T in enumerate(base) if len(T) == max_peak_count(n)}

    images = set(image)
    if images != target or len(images) != len(big):
        return False
    # order isomorphism: S <= S' iff labels and bases are componentwise <=,
    # checked as image(down-set of S') = down-set of image(S') in the target
    for code, below in zip(image, big_down):
        j2, b2 = divmod(code, 2)  # b = a - 1, the label's bit in the code
        product_below = {2 * j + b for j in base_down[j2] for b in range(b2 + 1)}
        if {image[k] for k in below} != product_below & target:
            return False
    return True
