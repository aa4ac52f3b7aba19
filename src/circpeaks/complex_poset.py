"""The simplicial complex / poset of realizable circular-peak sets.

Faces of dimension i are the realizable sets of size i+1; the closed form

    p_{n,i} = (n-2i-2)/(i+1) * C(n-1, i)      (p_{n,-1} = 1)

is the production path, evaluated by exact integer division, with the
enumeration and the parity recurrence kept as independent oracles.
face_table(n) is the integer f-vector; the f-polynomial, the zeta and
chain counts and the Hilbert data of algebra A are all read off it.
Also here: the one builder of the corrected generating series, written
in a with P(x,y) at a = x+1 and H(x,y) = P(x-1,y) at a = x, with the
one cross-multiplied check of the printed forms; the Moebius function,
the reduced Euler characteristic and the product-structure check.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from itertools import combinations

from .exact_algebra import (
    ClosedFormMismatchError,
    ExactPoly,
    PolySeries,
    binomial,
    catalan_series,
    exact_quotient,
)
from .peak_sets import PeakSet, is_valid, max_peak_count
from .perm_core import ResourceLimitError
from .record import Record

POSET_CAP = 14


def _check_poset_cap(n: int) -> None:
    if n > POSET_CAP:
        raise ResourceLimitError(
            f"exhaustive face/poset enumeration capped at n <= {POSET_CAP} (got n={n})"
        )


class FaceTable(Record):
    """f-vector of the complex: (p_{n,-1}, p_{n,0}, ..., p_{n,D-1})."""

    __slots__ = ("n", "f")
    n: int
    f: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {"n": self.n, "f": list(self.f)}

    def csv_rows(self) -> list[tuple[int, int, int]]:
        return [(self.n, i - 1, p) for i, p in enumerate(self.f)]

    def polynomial(self) -> ExactPoly:
        """P_n(x) = sum_i p_{n,i-1} x^{D-i}: the f-vector, reversed."""
        return ExactPoly(reversed(self.f))


def faces(n: int, dim: int) -> list[PeakSet]:
    """All faces of the given dimension, lexicographic by element sequence."""
    if n < 3:
        raise ValueError("n must be >= 3")
    if dim < -1 or dim > max_peak_count(n) - 1:
        return []
    if dim == -1:
        return [PeakSet(n, ())]
    _check_poset_cap(n)
    return [PeakSet(n, c)
            for c in combinations(range(3, n + 1), dim + 1)
            if is_valid(n, c)]


def all_faces(n: int) -> list[PeakSet]:
    """Every face, ordered by dimension then lexicographically."""
    out: list[PeakSet] = []
    for d in range(-1, max_peak_count(n)):
        out.extend(faces(n, d))
    return out


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


def face_table(n: int) -> FaceTable:
    """The f-vector, from which every closed form of the package is derived.

    Row i is p_{n,i} = (n-2i-2)/(i+1) * C(n-1, i), with the binomial
    carried by the ratio recurrence C(n-1, i) = C(n-1, i-1) * (n-i) / i:
    two small-by-big products and two exact divisions per entry instead
    of a fresh binomial.  face_count(n, i) is its per-entry oracle.
    """
    row = [1]  # p_{n,-1}
    c = 1  # C(n-1, i)
    for i in range(max_peak_count(n)):
        if i:
            c = c * (n - i) // i
        row.append(exact_quotient((n - 2 * i - 2) * c, i + 1, f"face_table({n}) entry {i}"))
    return FaceTable(n, tuple(row))


def face_counts_by_recurrence(n: int) -> FaceTable:
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
    return FaceTable(n, tuple(row))


def f_polynomial(n: int) -> ExactPoly:
    """P_n(x) = sum_i p_{n,i-1} x^{D-i} with D = floor((n-1)/2)."""
    return face_table(n).polynomial()


def f_polynomial_by_recurrence(n: int) -> ExactPoly:
    """P_n(x) from the parity recurrence (test oracle).

    Even m: P_{m+1} = (1+x)P_m; odd m: x P_{m+1} = (1+x)P_m - 2/(m+1) C(m-1,(m-1)/2),
    the latter solved by exact division by x.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    p = ExactPoly((1, 1))
    one_plus_x = ExactPoly((1, 1))
    for m in range(3, n):
        if m % 2 == 0:
            p = one_plus_x * p
        else:
            c = Fraction(2, m + 1) * binomial(m - 1, (m - 1) // 2)
            p = (one_plus_x * p - ExactPoly.constant(c)).exact_div(ExactPoly.x())
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
                                order_n: int, formula: str, note: str) -> dict | None:
    """Cross-multiplied check of a printed closed form, as a function of a.

    Tests (S + y^2)(a(a-1) - a^2 y^2) = [(a^2-1) - (a-1) C(y^2)] y^2 (1 + a y)
    through y^order_n, with S = sum_{n>=3} truth(n) y^n.  Returns None if
    the identity holds, else a report naming the first failing y-order
    with both coefficient polynomials.
    """
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


def printed_f_series_discrepancy(order_n: int = 12) -> dict | None:
    """Check the commonly printed P(x,y) closed form by cross-multiplication.

    Tests whether (S + y^2) * (x - (x+1)y^2)(x+1) equals
    [x y^2 (x+2) - x y^2 C(y^2)] (1 + y + x y) with S the ground-truth
    series of f-polynomials.  Returns None if the identity holds, else a
    report naming the first failing y-order with both coefficient
    polynomials.
    """
    return _printed_series_discrepancy(
        ExactPoly((1, 1)), f_polynomial, order_n,
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
    if not set(s.elements) <= set(t.elements):
        raise ValueError(f"{s.elements} is not contained in {t.elements}")


def moebius_recursive_oracle(n: int, s: PeakSet, t: PeakSet) -> int:
    """Standard recursive Moebius computation over the face interval."""
    _require_interval(n, s, t)
    sset, tset = set(s.elements), set(t.elements)

    def mu(upper: frozenset) -> int:
        if upper == sset:
            return 1
        total = 0
        between = sorted(upper - sset)
        for k in range(len(between)):
            for extra in combinations(between, k):
                u = frozenset(sset | set(extra))
                if is_valid(n, u):
                    total += mu(u)
        return -total

    return mu(frozenset(tset))


def euler_characteristic_closed_form(n: int) -> int:
    """0 for odd n and 2(-1)^(n/2)/n * C(n-2, (n-2)/2) for even n."""
    if n % 2:
        return 0
    return exact_quotient(2 * (-1) ** (n // 2) * binomial(n - 2, (n - 2) // 2), n,
                          f"closed-form Euler characteristic of P_{n}")


def euler_characteristic(n: int) -> int:
    """Reduced Euler characteristic: alternating sum of the f-vector.

    ClosedFormMismatchError is raised if it differs from
    euler_characteristic_closed_form(n).
    """
    chi = sum((-1) ** (m + 1) * p for m, p in enumerate(face_table(n).f))
    closed = euler_characteristic_closed_form(n)
    if chi != closed:
        raise ClosedFormMismatchError(
            f"Euler characteristic of P_{n}: f-vector sum {chi} != closed form {closed}")
    return chi


def verify_product_structure(n: int) -> bool:
    """Check the product decomposition of the (n+1)-poset over the n-poset.

    The candidate map sends a face S of the (n+1)-complex to
    (2 if n+1 in S else 1, S minus {n+1}).  For even n it must be an order
    isomorphism onto the full product 2 x P_n; for odd n, onto the product
    minus the slice (carrying n+1) over the top-dimensional faces.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    _check_poset_cap(n + 1)
    base = [frozenset(f.elements) for f in all_faces(n)]
    big = [frozenset(f.elements) for f in all_faces(n + 1)]
    top = max_peak_count(n) - 1

    image = {}
    for S in big:
        label = 2 if n + 1 in S else 1
        image[S] = (label, frozenset(S - {n + 1}))

    target = {(a, T) for a in (1, 2) for T in base}
    if n % 2:
        target -= {(2, T) for T in base if len(T) == top + 1}

    if set(image.values()) != target or len(set(image.values())) != len(big):
        return False
    # order isomorphism: S <= S' iff labels and bases are componentwise <=
    for S in big:
        for S2 in big:
            lhs = S <= S2
            (a, T), (a2, T2) = image[S], image[S2]
            rhs = a <= a2 and T <= T2
            if lhs != rhs:
                return False
    return True
