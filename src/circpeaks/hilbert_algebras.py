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
(N as an ExactPoly, e).  A is the face ring of the order complex of P_n,
so e = D + 1 and Hilb_A(x) = Hilb_B(x/(1-x)).  The derivative
recurrences of the A-series and of its numerator are stated and checked
in the hilbert suite of circpeaks.checks, which reads hilbert_series_a
and numerator_a through this module.
"""

from __future__ import annotations

from math import comb
from operator import index

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
_MONOMIAL_WORK_CAP = 2_000_000


def dim_a(n: int, i: int) -> int:
    """dim of the degree-i piece of algebra A: multichains of i faces, zeta(n, i+1)."""
    i = index(i)
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

    e = floor((n+1)/2) = D + 1, and N(x) = sum_t d_{n,t} x^t (1-x)^(e-t) has
    integer coefficients by construction: Hilb_A(x) = Hilb_B(x/(1-x)).
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
