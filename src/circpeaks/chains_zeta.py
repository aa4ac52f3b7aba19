"""Multichain and chain counting in the peak-set complex.

zeta(n, i) counts multichains of i-1 faces and is evaluated by integer
Horner over the f-vector.  chain_counts(n) gives every strict chain count
d_{n,i} from the integer f-vector in O(D^2) big-integer subtractions, D =
floor((n-1)/2), as the forward differences of the multichain counts,
which is their binomial inversion (Stanley, EC1 3.12).  Both are defined
in circpeaks.tables, the integer core, and re-exported here.  The paper's
multinomial composition sum, chain_count_formula, grows exponentially in
n and is kept as an oracle only.  Both counts have dumb exhaustive
oracles over the face poset for cross-checking, and the f-polynomial can
be rebuilt from the chain counts alone.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction

from .complex_poset import _check_poset_cap, _mask, _submasks, all_faces
from .exact_algebra import ExactPoly, multinomial
# Re-exported from the integer core, which defines them.
from .tables import (
    FaceTable,
    as_integer,
    chain_counts,
    exact_quotient,
    face_table,
    max_peak_count,
    zeta,
    zeta_values,
    zeta_values_of,
)


def zeta_polynomial(n: int) -> ExactPoly:
    """Z(P_n, i) as a polynomial in i: the f-vector polynomial at i - 1.

    Integer Taylor shift by repeated synthetic subtraction, O(D^2); the
    oracle is poly_shift(ExactPoly(face_table(n).f))."""
    c = list(face_table(n).f)
    for k in range(len(c) - 1):
        for j in range(len(c) - 2, k - 1, -1):
            c[j] -= c[j + 1]
    return ExactPoly(c)


def _faces_below(n: int, strict: bool) -> list[list[int]]:
    """For each face b of all_faces(n), the indices of the faces a < b (a <= b), ascending.

    The faces below b are the submasks of b's bitmask that are faces, at
    most 2^D of them with D = floor((n-1)/2); each is looked up in the
    face index.  That is O(m 2^D) lookups for the m faces, instead of
    comparing all m^2 pairs.
    """
    masks = [_mask(f.elements) for f in all_faces(n)]
    index = {m: j for j, m in enumerate(masks)}
    return [sorted(index[s] for s in _submasks(b) if s in index and not (strict and s == b))
            for b in masks]


def _count_chains(n: int, length: int, strict: bool,
                  below: list[list[int]] | None) -> int:
    """Tuples of ``length`` faces, each below the next (strictly if strict).

    counts[k] is the number of tuples of the current length ending at
    face k, summed over per-face lists of the faces below it (below, or
    _faces_below(n, strict) if it is None).  Once every count is zero no
    longer tuple exists, so the level loop stops there; that never
    happens for multichains, as every face is below itself.
    """
    _check_poset_cap(n)
    if length == 0:
        return 1
    if below is None:
        below = _faces_below(n, strict)
    counts = [1] * len(below)
    for _ in range(length - 1):
        counts = [sum(counts[j] for j in js) for js in below]
        if not any(counts):
            return 0
    return sum(counts)


def multichain_oracle(n: int, length: int, *, below: list[list[int]] | None = None) -> int:
    """Exhaustive count of weakly increasing length-tuples of faces.

    A caller that counts at several lengths may pass below =
    _faces_below(n, False), built once; by default it is built here.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    return _count_chains(n, length, False, below)


def chain_oracle(n: int, i: int, *, below: list[list[int]] | None = None) -> int:
    """Exhaustive count of strictly increasing i-tuples of faces.

    A caller that counts at several i may pass below =
    _faces_below(n, True), built once; by default it is built here.
    """
    if i < 0:
        raise ValueError("i must be >= 0")
    return _count_chains(n, i, True, below)


def _compositions(total: int, mins: list[int]) -> Iterator[tuple[int, ...]]:
    if len(mins) == 1:
        if total >= mins[0]:
            yield (total,)
        return
    for first in range(mins[0], total + 1):
        for rest in _compositions(total - first, mins[1:]):
            yield (first,) + rest


def chain_count_formula(n: int, i: int) -> int:
    """d_{n,i} by the multinomial composition sum, evaluated literally.

    Sum over (d_1, ..., d_{i+1}) with sum = n, d_1 >= 0, middle parts >= 1
    and d_{i+1} >= n - floor((n-1)/2); the weight (2 d_{i+1} - n)/n is not
    clamped.  The integer sum of multinomial * (2 d_{i+1} - n) is divided
    by n once, exactly, or NonIntegralError is raised.  Its cost grows
    exponentially in n: production code uses chain_counts, and this sum is
    the oracle it is checked against.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    if i < 1:
        raise ValueError("i must be >= 1")
    mins = [0] + [1] * (i - 1) + [n - max_peak_count(n)]
    total = sum(multinomial(parts) * (2 * parts[-1] - n) for parts in _compositions(n, mins))
    return exact_quotient(total, n, f"chain_count_formula({n}, {i})")


def f_polynomial_from_chains(n: int) -> ExactPoly:
    """Rebuild P_n(x) from the chain counts alone.

    P_n(x) = sum_{i=2}^{D+2} x^(D+2-i)/(i-2)! * prod_{j=1}^{i-2}(1-jx) * d_{n,i-1}.
    """
    top = max_peak_count(n)
    acc = ExactPoly(())
    for i in range(2, top + 3):
        d = chain_count_formula(n, i - 1)
        if d == 0:
            continue
        term = ExactPoly.constant(d)
        for j in range(1, i - 1):
            term = term * ExactPoly((1, -j))
        fact = 1
        for j in range(2, i - 1):
            fact *= j
        term = term.scale(Fraction(1, fact))
        shift = [0] * (top + 2 - i) + [1]
        acc = acc + term * ExactPoly(shift)
    return acc
