"""Graded dimensions and Hilbert data of the two face-poset algebras.

Algebra A is the polynomial ring on one variable per face modulo products
of incomparable faces; algebra B additionally kills squares.  Graded
dimensions are multichain respectively strict-chain counts, so everything
reduces to the chain machinery; the ideals themselves are never
materialized, only the comparability predicate is used.  The A-dimensions
are zeta values and the B-dimensions the vector chain_counts(n); each
function here builds the integer f-vector once per call, and
hilbert_data_a gives the dimensions, rational form and Hilbert
polynomial of A from one build.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb

from .chains_zeta import chain_counts, zeta, zeta_values, zeta_values_of
from .complex_poset import all_faces, face_table
from .exact_algebra import ExactPoly, InexactDivisionError, NonIntegralError
from .peak_sets import max_peak_count
from .perm_core import ResourceLimitError
from .record import Record

MONOMIAL_DEGREE_CAP = 6
# Coefficients past the numerator degree that numerator_a checks to be zero.
_NUMERATOR_GUARD = 4
_MONOMIAL_WORK_CAP = 2_000_000


class GradedDimensions(Record):
    __slots__ = ("n", "algebra", "dims")
    n: int
    algebra: str  # "A" or "B"
    dims: tuple[int, ...]

    def csv_rows(self) -> list[tuple[int, str, int, int]]:
        return [(self.n, self.algebra, i, d) for i, d in enumerate(self.dims)]


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
    return ExactPoly(face_table(n).f)


def hilbert_series_a(n: int, order: int) -> tuple[int, ...]:
    """Coefficients 0..order of the Hilbert series of algebra A, from one f-vector."""
    if order < 0:
        raise ValueError("order must be >= 0")
    return (1,) + zeta_values(n, range(2, order + 2))


def numerator_a(n: int) -> RationalSeriesForm:
    """Closed rational form of the A-series.

    The denominator exponent is floor((n+1)/2); the tempting floor(n/2)
    contradicts the n = 3 initial condition 1/(1-x)^2.  The numerator
    is obtained by repeated differencing of the integer dimensions and
    checked to terminate; InexactDivisionError is raised if it does not.
    """
    exponent = (n + 1) // 2
    return _rational_form(n, hilbert_series_a(n, exponent + 1 + _NUMERATOR_GUARD))


def hilbert_data_a(n: int, order: int) -> tuple[GradedDimensions, RationalSeriesForm, ExactPoly]:
    """Degrees 0..order of A, its rational form and its Hilbert polynomial.

    One f-vector serves all three: the dimensions of both the requested
    degrees and the numerator's longer run are read off one Horner pass.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    table = face_table(n)
    exponent = (n + 1) // 2
    length = exponent + 1 + _NUMERATOR_GUARD
    series = (1,) + zeta_values_of(table, range(2, max(order, length) + 2))
    return (GradedDimensions(n, "A", series[: order + 1]),
            _rational_form(n, series[: length + 1]),
            ExactPoly(table.f))


def _rational_form(n: int, series: tuple[int, ...]) -> RationalSeriesForm:
    """numerator / (1-x)^floor((n+1)/2) from the A-series through its guard terms."""
    exponent = (n + 1) // 2
    series = list(series)
    for _ in range(exponent):
        series = [series[0]] + [series[k] - series[k - 1]
                                for k in range(1, len(series))]
    head, tail = series[: exponent + 2], series[exponent + 2:]
    if any(tail):
        raise InexactDivisionError(
            f"A-series of n={n} times (1-x)^{exponent} does not terminate: {series}"
        )
    return RationalSeriesForm(ExactPoly(head), exponent)


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


def graded_dimensions_b(n: int, counts: tuple[int, ...], max_degree: int) -> GradedDimensions:
    """Degrees 0..max_degree of B from its chain-count vector, zero past it."""
    return GradedDimensions(
        n, "B", counts[: max_degree + 1] + (0,) * (max_degree + 1 - len(counts)))


def standard_monomial_oracle(n: int, algebra: str, degree: int) -> int:
    """Count degree-d monomials surviving in the quotient, by enumeration.

    Faces are indexed in the fixed lexicographic-by-dimension order of
    all_faces; a monomial survives iff every pair of distinct indices in
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
    fs = [frozenset(f.elements) for f in all_faces(n)]
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


def graded_dimensions(n: int, algebra: str, max_degree: int) -> GradedDimensions:
    if algebra == "A":
        dims = hilbert_series_a(n, max_degree)
    elif algebra == "B":
        return graded_dimensions_b(n, chain_counts(n), max_degree)
    else:
        raise ValueError("algebra must be 'A' or 'B'")
    return GradedDimensions(n, algebra, dims)


# ---------------------------------------------------------------------------
# recurrence verification (the derivative relations are checked as exact
# truncated-series identities; production paths never use them)


def _series(n: int, order: int) -> list[int]:
    return list(hilbert_series_a(n, order))


def _xd(s: list) -> list:
    """x * d/dx acting on a coefficient list: multiplies coeff k by k."""
    return [k * c for k, c in enumerate(s)]


def verify_series_recurrence_a(n: int, order: int = 12) -> bool:
    """Check the A-series derivative recurrence starting at parity of n.

    Even n: Hilb_{n+1} = x Hilb'_n + Hilb_n.
    Odd n:  Hilb_{n+3} = x Hilb'_{n+2} + Hilb_{n+2} + (4n/(n+3)) x Hilb'_{n+1}
            - (8n/(n+3)) x Hilb'_n - (4n/(n+3)) x^2 Hilb''_n.
    """
    if n % 2 == 0:
        lhs = _series(n + 1, order)
        rhs = [a + b for a, b in zip(_xd(_series(n, order)), _series(n, order))]
        return lhs == rhs
    c = Fraction(4 * n, n + 3)
    s0, s1, s2 = _series(n, order), _series(n + 1, order), _series(n + 2, order)
    x2dd = [k * (k - 1) * v for k, v in enumerate(s0)]
    rhs = [
        _xd(s2)[k] + s2[k] + c * _xd(s1)[k] - 2 * c * _xd(s0)[k] - c * x2dd[k]
        for k in range(order + 1)
    ]
    return _series(n + 3, order) == rhs


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
