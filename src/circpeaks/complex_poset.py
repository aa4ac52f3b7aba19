"""The simplicial complex / poset of realizable circular-peak sets.

Faces of dimension i are the realizable sets of size i+1; the closed form

    p_{n,i} = (n-2i-2)/(i+1) * C(n-1, i)      (p_{n,-1} = 1)

is the production path, evaluated by exact integer division in
circpeaks.tables, with the per-entry closed form face_count, the
enumeration and the parity recurrence kept here as independent oracles.
Each recurrence is one walk that yields every n from 3 up; its per-n
oracle returns the walk's last value, and a check reads one walk once.
face_table(n), the integer f-vector, and the Euler characteristic are
defined in circpeaks.tables and re-exported here; f_polynomial is its
ExactPoly view.  The face enumeration face_tuples is defined in the
integer-only circpeaks.poset_core and re-exported here; faces wraps the
tuples in PeakSet.
Also here: the parity-recurrence walk written in a, with P at a = x+1
and H = P(x-1) at a = x (both generating-function forms are checked
coefficient by coefficient, in the series suite of circpeaks.checks);
the Moebius function, whose recursion oracle
_moebius_from (complex/moebius-closed-form) is defined in poset_core;
and the kernel of the registry check complex/product-structure,
_product_structure, one set identity on face tuples, which no public
function wraps.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import count, islice

from .exact_algebra import ExactPoly, binomial
from .peak_sets import PeakSet, is_valid
# Re-exported from the integer-only face poset, which defines them.
from .poset_core import face_tuples
# Re-exported from the integer core, which defines them.
from .tables import (
    POSET_CAP,
    euler_characteristic,
    euler_characteristic_closed_form,
    exact_quotient,
    face_table,
    max_peak_count,
)


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
    Initial row (p_{3,-1}, p_{3,0}) = (1, 1).  The last row of one walk,
    _face_count_walk, which yields every n from 3 up and is read once per check.
    """
    return _walk_at(_face_count_walk(), n)


def _walk_at(walk: Iterator, n: int):
    """The value at n of a walk that yields its value at every n from 3 up."""
    if n < 3:
        raise ValueError("n must be >= 3")
    return next(islice(walk, n - 3, None))


def _face_count_walk() -> Iterator[tuple[int, ...]]:
    row = (1, 1)
    for m in count(3):
        yield row
        sums = tuple(a + b for a, b in zip(row, row[1:]))
        row = (row[0], *sums) if m % 2 else (row[0], *sums, row[-1])


def f_polynomial(n: int) -> ExactPoly:
    """P_n(x) = sum_i p_{n,i-1} x^{D-i} with D = floor((n-1)/2): the f-vector, reversed."""
    return ExactPoly(reversed(face_table(n)))


def f_polynomial_by_recurrence(n: int) -> ExactPoly:
    """P_n(x) from the parity recurrence (test oracle).

    Even m: P_{m+1} = (1+x)P_m; odd m: x P_{m+1} = (1+x)P_m - 2/(m+1) C(m-1,(m-1)/2),
    the latter solved by exact division by x.  This is the last value of
    _polynomial_walk at a = 1+x; complex/fpolynomial-recurrence reads it once.
    """
    return _walk_at(_polynomial_walk(ExactPoly((1, 1))), n)


def _polynomial_walk(a: ExactPoly) -> Iterator[ExactPoly]:
    """The parity recurrence in a, yielding p at every n from p = a at n = 3.

    Even m: p <- a p; odd m: p <- (a p - c_m) / (a - 1), divided exactly,
    with c_m = 2/(m+1) C(m-1,(m-1)/2).  a = 1+x gives P_n; a = x gives
    H_n = P_n(x-1).
    """
    p, a_minus_one = a, a - ExactPoly.constant(1)
    for m in count(3):
        yield p
        if m % 2 == 0:
            p = a * p
        else:
            c = exact_quotient(2 * binomial(m - 1, (m - 1) // 2), m + 1,
                               f"the Catalan term 2/(m+1) C(m-1,(m-1)/2) at m={m}")
            p = (a * p - ExactPoly.constant(c)).exact_div(a_minus_one)


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


def _product_structure(n: int, base, big) -> bool:
    """The product decomposition of P_{n+1} over P_n, on their face lists.

    base and big list the faces of P_n and P_{n+1} as ascending tuples.
    The map phi sends a face S of P_{n+1} to (1 + [n+1 in S], S minus
    {n+1}).  For even n it must be an order isomorphism onto the full
    product 2 x P_n; for odd n, onto the product minus the slice (label 2)
    over the top-dimensional faces.  The registry check
    complex/product-structure runs it for n <= 13.

    phi is an order embedding of all subsets of [n+1] into 2 x (subsets of
    [n]): S is a subset of S' iff [n+1 in S] <= [n+1 in S'] and S minus
    {n+1} is a subset of S' minus {n+1}, which is phi(S) <= phi(S')
    componentwise.  So phi maps the listed faces isomorphically onto the
    target iff they are, without repeats, the preimage of the target: each
    T of P_n, and T with n+1 adjoined for each (2, T) in the target.
    complex/downward-closure checks that the faces are closed under
    one-element removal.
    """
    d = max_peak_count(n)
    target = set(base) | {T + (n + 1,) for T in base if not (n % 2 and len(T) == d)}
    return len(big) == len(target) and set(big) == target
