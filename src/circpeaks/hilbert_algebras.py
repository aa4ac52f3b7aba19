"""Graded dimensions and Hilbert data of the two face-poset algebras.

Algebra A is the polynomial ring on one variable per face modulo products
of incomparable faces; algebra B additionally kills squares.  Graded
dimensions are multichain respectively strict-chain counts, so everything
reduces to the chain machinery; the ideals themselves are never
materialized, only the comparability predicate is used.  The A-dimensions
are zeta values and the B-dimensions the vector chain_counts(n); each
function here builds the integer f-vector once per call.  The integer
data of both algebras is computed in circpeaks.tables, the integer
core, and re-exported here (tables.hilbert_a_integers gives the
dimensions, rational form and Hilbert polynomial of A as integer tuples
from one build); the ExactPoly views and the oracles are defined here.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb

from .complex_poset import face_tuples
from .exact_algebra import ExactPoly
from .record import Record
# Re-exported from the integer core, which defines them.
from .tables import (
    NonIntegralError,
    ResourceLimitError,
    _numerator_order,
    chain_counts,
    face_table,
    hilbert_series_a,
    max_peak_count,
    rational_form_a,
    zeta,
)

MONOMIAL_DEGREE_CAP = 6
# The order through which verify_series_recurrence_a compares the A-series.
SERIES_RECURRENCE_ORDER = 12
_MONOMIAL_WORK_CAP = 2_000_000


class RationalSeriesForm(Record):
    """numerator / (1-x)^denominator_exponent."""

    __slots__ = ("numerator", "denominator_exponent")
    numerator: ExactPoly
    denominator_exponent: int


def dim_a(n: int, i: int) -> int:
    """dim of the degree-i piece of algebra A: multichains of i faces, zeta(n, i+1)."""
    if n < 3:
        raise ValueError("n must be >= 3")
    if i < 0:
        raise ValueError("degree must be >= 0")
    if i == 0:
        return 1
    try:
        return zeta(n, i + 1)
    except NonIntegralError as exc:
        raise NonIntegralError(f"dim_a({n}, {i}) = {exc}") from exc


def hilbert_polynomial_a(n: int) -> ExactPoly:
    """The polynomial agreeing with dim_a(n, i) at every i >= 1.

    This is x^D P_n(1/x), the f-vector read as coefficients: the rank
    generating function sum_j p_{n,j} x^(j+1) (void face included); it
    happens to give the correct dimension 1 at i = 0 as well.
    """
    return ExactPoly(face_table(n))


def numerator_a(n: int) -> RationalSeriesForm:
    """Closed rational form of the A-series: rational_form_a of its first terms.

    The denominator exponent is floor((n+1)/2).  The numerator is
    obtained by repeated differencing of the integer dimensions and
    checked to terminate; InexactDivisionError is raised if it does not.
    """
    numerator, exponent = rational_form_a(n, hilbert_series_a(n, _numerator_order(n)))
    return RationalSeriesForm(ExactPoly(numerator), exponent)


def dim_b(n: int, i: int) -> int:
    """dim of the degree-i piece of algebra B: strict chains of i faces."""
    if n < 3:
        raise ValueError("n must be >= 3")
    if i < 0:
        raise ValueError("degree must be >= 0")
    if i > max_peak_count(n) + 1:
        return 0
    return chain_counts(n)[i]


def hilbert_series_b(n: int) -> ExactPoly:
    """The (polynomial) Hilbert series of the finite-dimensional algebra B."""
    return ExactPoly(chain_counts(n))


def standard_monomial_oracle(n: int, algebra: str, degree: int) -> int:
    """Count degree-d monomials surviving in the quotient, by enumeration.

    Faces are indexed in the fixed lexicographic-by-dimension order of
    face_tuples; a monomial survives iff every pair of distinct indices in
    its support is comparable (algebra A), with squarefreeness imposed on
    top for algebra B.
    """
    if algebra not in ("A", "B"):
        raise ValueError("algebra must be 'A' or 'B'")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    if degree == 0:
        return 1
    if degree > MONOMIAL_DEGREE_CAP:
        raise ResourceLimitError(
            f"monomial oracle capped at degree <= {MONOMIAL_DEGREE_CAP}"
        )
    fs = [frozenset(c) for c in face_tuples(n)]
    m = len(fs)
    work = comb(m + degree - 1, degree) if algebra == "A" else comb(m, degree)
    if work > _MONOMIAL_WORK_CAP:
        raise ResourceLimitError(
            f"monomial oracle would enumerate {work} candidates (cap {_MONOMIAL_WORK_CAP})"
        )
    picker = combinations_with_replacement if algebra == "A" else combinations
    count = 0
    for idxs in picker(range(m), degree):
        ok = True
        for a, b in combinations(set(idxs), 2):
            if not (fs[a] <= fs[b] or fs[b] <= fs[a]):
                ok = False
                break
        if ok:
            count += 1
    return count


# ---------------------------------------------------------------------------
# recurrence verification (the derivative relations are checked as exact
# truncated-series identities; production paths never use them)


def _series(n: int) -> list[int]:
    return list(hilbert_series_a(n, SERIES_RECURRENCE_ORDER))


def _xd(s: list) -> list:
    """x * d/dx acting on a coefficient list: multiplies coeff k by k."""
    return [k * c for k, c in enumerate(s)]


def verify_series_recurrence_a(n: int) -> bool:
    """Check the A-series derivative recurrence starting at parity of n.

    Even n: Hilb_{n+1} = x Hilb'_n + Hilb_n.
    Odd n:  Hilb_{n+3} = x Hilb'_{n+2} + Hilb_{n+2} + (4n/(n+3)) x Hilb'_{n+1}
            - (8n/(n+3)) x Hilb'_n - (4n/(n+3)) x^2 Hilb''_n.
    """
    if n % 2 == 0:
        lhs = _series(n + 1)
        rhs = [a + b for a, b in zip(_xd(_series(n)), _series(n))]
        return lhs == rhs
    c = Fraction(4 * n, n + 3)
    s0, s1, s2 = _series(n), _series(n + 1), _series(n + 2)
    x2dd = [k * (k - 1) * v for k, v in enumerate(s0)]
    rhs = [
        _xd(s2)[k] + s2[k] + c * _xd(s1)[k] - 2 * c * _xd(s0)[k] - c * x2dd[k]
        for k in range(SERIES_RECURRENCE_ORDER + 1)
    ]
    return _series(n + 3) == rhs


def verify_numerator_recurrence_a(n: int) -> bool:
    """Check the numerator-polynomial recurrence at parity of n.

    Even n: A_{n+1} = x(1-x) A'_n + [((n/2)-1) x + 1] A_n.
    Odd n:  the printed four-term relation with first and second
    derivatives, multiplied through by (1-x) on the left.
    """
    x = ExactPoly.x()
    one = ExactPoly.constant(1)
    one_minus_x = ExactPoly((1, -1))
    if n % 2 == 0:
        a = numerator_a(n).numerator
        lhs = numerator_a(n + 1).numerator
        rhs = x * one_minus_x * a.derivative() + \
            ExactPoly((1, n // 2 - 1)) * a
        return lhs == rhs
    a0 = numerator_a(n).numerator
    a1 = numerator_a(n + 1).numerator
    a2 = numerator_a(n + 2).numerator
    a3 = numerator_a(n + 3).numerator
    lhs = one_minus_x * a3
    rhs = (
        x * one_minus_x * a2.derivative()
        + ExactPoly((1, (n + 1) // 2)) * a2
        + (x * one_minus_x * one_minus_x * a1.derivative()).scale(Fraction(4 * n, n + 3))
        + (x * one_minus_x * a1).scale(Fraction(2 * n * (n + 1), n + 3))
        - (x * one_minus_x * ExactPoly((2, n - 1)) * a0.derivative()).scale(Fraction(4 * n, n + 3))
        - (x * ExactPoly((4, n - 1)) * a0).scale(Fraction(n * (n + 1), n + 3))
        - (x * x * one_minus_x * one_minus_x * a0.derivative().derivative()).scale(Fraction(4 * n, n + 3))
    )
    return lhs == rhs
