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
numerator_a returns that rational form N(x) / (1-x)^e as the plain pair
(N as an ExactPoly, e).  Spanned by the multichains of faces, A is the face
ring of a cone over the barycentric subdivision of P_n, so e = D + 1.
"""

from __future__ import annotations

from math import comb

from . import tables
from .exact_algebra import ExactPoly
from .poset_core import _faces_below, _mask, face_tuples
# Re-exported from the integer core, which defines them.
from .tables import (
    NonIntegralError,
    ResourceLimitError,
    chain_counts,
    face_table,
    hilbert_series_a,
    max_peak_count,
    zeta,
)

MONOMIAL_DEGREE_CAP = 6
# The order through which verify_series_recurrence_a compares the A-series.
SERIES_RECURRENCE_ORDER = 12
_MONOMIAL_WORK_CAP = 2_000_000


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


def numerator_a(n: int) -> tuple[ExactPoly, int]:
    """(N, e) with Hilb_A(x) = N(x) / (1-x)^e, read off tables.hilbert_a_integers.

    The denominator exponent e is floor((n+1)/2).  The numerator is
    obtained by repeated differencing of the integer dimensions and
    checked to terminate; InexactDivisionError is raised if it does not.
    """
    _, numerator, exponent, _ = tables.hilbert_a_integers(n, 0)
    return ExactPoly(numerator), exponent


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
    top for algebra B.  The surviving monomials are the nondecreasing (A)
    or increasing (B) index sequences of such faces, counted by a
    depth-first search that extends a sequence only by a face comparable
    to every face already in it.  comparable[j] has bit k set iff faces j
    and k are comparable, so the faces that may extend a sequence are the
    AND of the masks of its faces.
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
    faces = face_tuples(n)
    m = len(faces)
    work = comb(m + degree - 1, degree) if algebra == "A" else comb(m, degree)
    if work > _MONOMIAL_WORK_CAP:
        raise ResourceLimitError(
            f"monomial oracle would enumerate {work} candidates (cap {_MONOMIAL_WORK_CAP})"
        )
    index = {_mask(c): j for j, c in enumerate(faces)}
    comparable = [_mask(_faces_below(mask, index)) for mask in index]  # the faces below
    for j, mask in enumerate(index):
        for k in _faces_below(mask, index):
            comparable[k] |= 1 << j  # and the faces above it
    repeat = algebra == "A"

    def extend(allowed: int, left: int) -> int:
        """Sequences of left more faces, each from allowed and ascending in index."""
        if left == 1:
            return allowed.bit_count()
        total = 0
        while allowed:
            low = allowed & -allowed
            rest = allowed ^ low  # the allowed faces past this one
            j = low.bit_length() - 1
            total += extend((allowed if repeat else rest) & comparable[j], left - 1)
            allowed = rest
        return total

    return extend((1 << m) - 1, degree)


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
            - (8n/(n+3)) x Hilb'_n - (4n/(n+3)) x^2 Hilb''_n,
    compared in integers after multiplying both sides by n+3.
    """
    if n % 2 == 0:
        lhs = _series(n + 1)
        rhs = [a + b for a, b in zip(_xd(_series(n)), _series(n))]
        return lhs == rhs
    c = 4 * n
    s0, s1, s2 = _series(n), _series(n + 1), _series(n + 2)
    d0, d1, d2 = _xd(s0), _xd(s1), _xd(s2)
    rhs = [(n + 3) * (d2[k] + s2[k]) + c * (d1[k] - 2 * d0[k] - k * (k - 1) * s0[k])
           for k in range(SERIES_RECURRENCE_ORDER + 1)]
    return [(n + 3) * v for v in _series(n + 3)] == rhs


def verify_numerator_recurrence_a(n: int) -> bool:
    """Check the numerator-polynomial recurrence at parity of n.

    Even n: A_{n+1} = x(1-x) A'_n + [((n/2)-1) x + 1] A_n.
    Odd n:  the printed four-term relation with first and second
    derivatives, multiplied through by (1-x) on the left and by n+3, so
    that its coefficients 4n/(n+3), 2n(n+1)/(n+3) and n(n+1)/(n+3) are
    compared in integers.
    """
    x = ExactPoly.x()
    one = ExactPoly.constant(1)
    one_minus_x = ExactPoly((1, -1))
    if n % 2 == 0:
        a, _ = numerator_a(n)
        lhs, _ = numerator_a(n + 1)
        rhs = x * one_minus_x * a.derivative() + \
            ExactPoly((1, n // 2 - 1)) * a
        return lhs == rhs
    a0, a1, a2, a3 = (numerator_a(m)[0] for m in range(n, n + 4))
    lhs = (one_minus_x * a3).scale(n + 3)
    rhs = (
        (x * one_minus_x * a2.derivative() + ExactPoly((1, (n + 1) // 2)) * a2).scale(n + 3)
        + (x * one_minus_x * one_minus_x * a1.derivative()).scale(4 * n)
        + (x * one_minus_x * a1).scale(2 * n * (n + 1))
        - (x * one_minus_x * ExactPoly((2, n - 1)) * a0.derivative()).scale(4 * n)
        - (x * ExactPoly((4, n - 1)) * a0).scale(n * (n + 1))
        - (x * x * one_minus_x * one_minus_x * a0.derivative().derivative()).scale(4 * n)
    )
    return lhs == rhs
