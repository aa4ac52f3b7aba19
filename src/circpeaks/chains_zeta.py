"""Multichain and chain counting in the peak-set complex.

zeta(n, i) counts multichains of i-1 faces and is evaluated by integer
Horner over the f-vector.  chain_counts(n) gives every strict chain count
d_{n,i} from the integer f-vector in O(D^2) big-integer subtractions, D =
floor((n-1)/2), as the forward differences of the multichain counts,
which is their binomial inversion (Stanley, EC1 3.12).  Both are defined
in circpeaks.tables, the integer core, and re-exported here.  The paper's
multinomial composition sum, chain_count_formula, grows exponentially in
n and is kept as an oracle only.  Both counts have exhaustive oracles,
multichain_oracle and chain_oracle: one level pass over the face poset's
down-sets that counts every length at once.  They are defined in
circpeaks.poset_core, in integer arithmetic only, and re-exported here.
The f-polynomial can be rebuilt from the chain counts alone.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from fractions import Fraction

from .exact_algebra import ExactPoly, multinomial
# Re-exported from the integer-only face poset, which defines them.
from .poset_core import _poset_chain_counts, chain_oracle, multichain_oracle
# Re-exported from the integer core, which defines them.
from .tables import (
    chain_counts,
    exact_quotient,
    face_table,
    max_peak_count,
    zeta,
    zeta_values,
)


def zeta_polynomial(n: int) -> ExactPoly:
    """Z(P_n, i) as a polynomial in i: the f-vector polynomial at i - 1.

    Integer Taylor shift by repeated synthetic subtraction, O(D^2); the
    oracle is poly_shift(ExactPoly(face_table(n)))."""
    c = list(face_table(n))
    for k in range(len(c) - 1):
        for j in range(len(c) - 2, k - 1, -1):
            c[j] -= c[j + 1]
    return ExactPoly(c)


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
    return _f_polynomial_from_counts(n, chain_count_formula)


def _f_polynomial_from_counts(n: int, count: Callable[[int, int], int]) -> ExactPoly:
    """f_polynomial_from_chains with d_{n,i} read off count(n, i)."""
    top = max_peak_count(n)
    acc = ExactPoly(())
    for i in range(2, top + 3):
        d = count(n, i - 1)
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
