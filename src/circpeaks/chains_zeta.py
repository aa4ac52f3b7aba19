"""Multichain and chain counting in the peak-set complex.

zeta(n, i) counts multichains of i-1 faces and is evaluated by integer
Horner over the f-vector.  chain_counts(n) gives every strict chain count
d_{n,i} from the integer f-vector in O(D^2) big-integer subtractions, D =
floor((n-1)/2), as the forward differences of the multichain counts,
which is their binomial inversion (Stanley, EC1 3.12).  The paper's
multinomial composition sum, chain_count_formula, grows exponentially in
n and is kept as an oracle only.  Both counts have dumb exhaustive
oracles over the face poset for cross-checking, and the f-polynomial can
be rebuilt from the chain counts alone.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from fractions import Fraction

from .complex_poset import FaceTable, _check_poset_cap, all_faces, face_table
from .exact_algebra import ExactPoly, as_integer, multinomial
from .peak_sets import max_peak_count


def zeta_values(n: int, i_values: Iterable[int]) -> tuple[int, ...]:
    """zeta(n, i) for each i in i_values, from one build of the f-vector."""
    return zeta_values_of(face_table(n), i_values)


def zeta_values_of(table: FaceTable, i_values: Iterable[int]) -> tuple[int, ...]:
    """zeta(table.n, i) for each i in i_values, from the given f-vector.

    Z(P_n, i) = sum_m p_{n,m-1} (i-1)^m, evaluated by integer Horner over
    the f-vector.  This is the one evaluation of the multichain formula:
    zeta, the dimensions of algebra A and the strict chain counts all
    come through here.
    """
    n, f = table.n, table.f
    out = []
    for i in i_values:
        if i < 2:
            raise ValueError("zeta is defined for i >= 2")
        acc = 0
        for p in reversed(f):
            acc = acc * (i - 1) + p
        out.append(as_integer(acc, f"zeta({n}, {i})"))
    return tuple(out)


def zeta(n: int, i: int) -> int:
    """Number of multichains x_1 <= ... <= x_{i-1}; (i-1)^D P_n(1/(i-1))."""
    return zeta_values(n, (i,))[0]


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
    """For each face b of all_faces(n), the indices of the faces a < b (a <= b)."""
    fs = [frozenset(f.elements) for f in all_faces(n)]
    if strict:
        return [[j for j, a in enumerate(fs) if a < b] for b in fs]
    return [[j for j, a in enumerate(fs) if a <= b] for b in fs]


def multichain_oracle(n: int, length: int) -> int:
    """Exhaustive count of weakly increasing length-tuples of faces.

    counts[k] is the number of multichains of the current length ending
    at face k, summed over per-face lists of the faces below it.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    _check_poset_cap(n)
    if length == 0:
        return 1
    below = _faces_below(n, strict=False)
    counts = [1] * len(below)
    for _ in range(length - 1):
        counts = [sum(counts[j] for j in js) for js in below]
    return sum(counts)


def chain_oracle(n: int, i: int) -> int:
    """Exhaustive count of strictly increasing i-tuples of faces.

    counts[k] is the number of chains of the current length ending at
    face k.  Once every count is zero no longer chain exists, so the
    level loop stops there.
    """
    if i < 0:
        raise ValueError("i must be >= 0")
    _check_poset_cap(n)
    if i == 0:
        return 1
    below = _faces_below(n, strict=True)
    counts = [1] * len(below)
    for _ in range(i - 1):
        counts = [sum(counts[j] for j in js) for js in below]
        if not any(counts):
            return 0
    return sum(counts)


def _compositions(total: int, mins: list[int]) -> Iterator[tuple[int, ...]]:
    if len(mins) == 1:
        if total >= mins[0]:
            yield (total,)
        return
    for first in range(mins[0], total + 1):
        for rest in _compositions(total - first, mins[1:]):
            yield (first,) + rest


def chain_count_formula(n: int, i: int) -> Fraction:
    """d_{n,i} by the multinomial composition sum, evaluated literally.

    Sum over (d_1, ..., d_{i+1}) with sum = n, d_1 >= 0, middle parts >= 1
    and d_{i+1} >= n - floor((n-1)/2); the weight (2 d_{i+1} - n)/n is not
    clamped.  Always integral on the tested range.  Its cost grows
    exponentially in n: production code uses chain_counts, and this sum is
    the oracle it is checked against.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    if i < 1:
        raise ValueError("i must be >= 1")
    mins = [0] + [1] * (i - 1) + [n - max_peak_count(n)]
    total = Fraction(0)
    for parts in _compositions(n, mins):
        total += Fraction(multinomial(parts)) * Fraction(2 * parts[-1] - n, n)
    return total


def chain_counts(n: int) -> tuple[int, ...]:
    """(d_{n,0}, ..., d_{n,D+1}): strict chains of i faces, in O(D^2) subtractions.

    Z_k = sum_m p_{n,m-1} (k+1)^m = zeta(n, k+2) counts the multichains
    of k+1 faces (zeta_values).  A multichain of k+1 faces with t+1
    distinct faces arises from C(k, t) of them, so Z_k = sum_t C(k, t)
    d_{n,t+1}, and binomial inversion gives
    d_{n,t+1} = sum_k (-1)^(t-k) C(t, k) Z_k = (Delta^t Z)_0, the t-th
    forward difference at 0, taken here by repeated differencing of the
    row Z_0..Z_D.  d_{n,i} = 0 for i > D+1.
    """
    z = list(zeta_values(n, range(2, max_peak_count(n) + 3)))  # Z_k = zeta(n, k + 2)
    out = [1]
    while z:
        out.append(z[0])
        z = [b - a for a, b in zip(z, z[1:])]
    return tuple(out)


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
        shift = [Fraction(0)] * (top + 2 - i) + [Fraction(1)]
        acc = acc + term * ExactPoly(shift)
    return acc
