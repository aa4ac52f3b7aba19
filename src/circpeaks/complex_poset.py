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
_product_structure, which no public function wraps.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import count, islice

from .exact_algebra import ExactPoly, binomial
from .peak_sets import PeakSet, is_valid
# Re-exported from the integer-only face poset, which defines them.
from .poset_core import _mask, face_tuples
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
    The candidate map sends a face S of P_{n+1} to (2 if n+1 in S else 1,
    S minus {n+1}).  For even n it must be an order isomorphism onto the
    full product 2 x P_n; for odd n, onto the product minus the slice
    (label 2) over the top-dimensional faces.  The registry check
    complex/product-structure runs it for n <= 13.

    Once the map is a bijection onto its target, it is an order
    isomorphism iff it maps the lower covers of each face S onto the lower
    covers of image(S) in the target.  In a finite poset x <= y iff a chain
    of covers leads from x up to y, and a bijection that maps covers onto
    covers, face by face, maps such chains both ways.  The lower covers of
    S in P_{n+1} are the sets S minus {x}, x in S, as a downward closed
    family holds every one-element removal of its faces; one that is not
    listed fails the test.  In 2 x P_n the lower covers of (a, T) are
    (a, T minus {x}), x in T, and (1, T) when a = 2.  The target is a
    down-set of 2 x P_n, as the slice removed for odd n consists of maximal
    elements (label 2 over a top-dimensional face), so its lower covers
    are those of 2 x P_n.  The test makes O(m D) lookups, m = |P_{n+1}|,
    D = floor((n-1)/2).
    """
    top = 1 << (n + 1)  # the bit of the element n + 1
    base_index = {_mask(T): j for j, T in enumerate(base)}
    masks = [_mask(S) for S in big]
    image = _product_image(n, base_index, masks)
    if image is None:
        return False
    for S, m in zip(big, masks):
        below = {image.get(m ^ 1 << x) for x in S}
        if None in below:  # a one-element removal of S is not listed
            return False
        code = image[m]
        a = code & 1  # the label minus 1
        covers = {2 * base_index[(m & ~top) ^ 1 << x] + a for x in S if x != n + 1}
        if a:
            covers.add(code - 1)  # (1, T) below (2, T)
        if below != covers:
            return False
    return True


def _product_image(n: int, base_index: dict[int, int], masks) -> dict[int, int] | None:
    """The code of the image of each face of P_{n+1}, keyed by its bitmask.

    masks are the bitmasks of the faces of P_{n+1}; base_index maps the
    bitmask of each face of P_n to its index j, and the pair (a, base[j])
    of the product is coded as the int 2j + a - 1.  None unless the map is
    a bijection onto the target: 2 x P_n, less the label-2 slice over the
    top-dimensional faces for odd n.

    One bytearray over the codes of 2 x P_n marks each code taken: first
    the codes outside the target, then each image.  An image on a marked
    code is outside the target or repeated, and the map is onto the target
    iff every code ends up marked.
    """
    top = 1 << (n + 1)
    taken = bytearray(2 * len(base_index))
    if n % 2:
        d = max_peak_count(n)
        for T, j in base_index.items():
            if T.bit_count() == d:
                taken[2 * j + 1] = 1
    image = {}
    for m in masks:
        j = base_index.get(m & ~top)
        if j is None:  # not a face of P_n, so outside the target
            return None
        code = 2 * j + bool(m & top)
        if taken[code]:
            return None
        taken[code] = 1
        image[m] = code
    if 0 in taken:
        return None
    return image
