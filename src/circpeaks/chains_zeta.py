"""Multichain and chain counting in the peak-set complex.

zeta(n, i) counts multichains of i-1 faces and is evaluated by integer
Horner over the f-vector.  chain_counts(n) gives every strict chain count
d_{n,i} from the integer f-vector in O(D^2) big-integer subtractions, D =
floor((n-1)/2), as the forward differences of the multichain counts,
which is their binomial inversion (Stanley, EC1 3.12).  Both are defined
in circpeaks.tables, the integer core, and re-exported here.  The paper's
multinomial composition sum, chain_count_formula, grows exponentially in
n and is kept as an oracle only.  Both counts have exhaustive oracles,
multichain_oracle and chain_oracle: one subset-sum pass over the faces'
bitmasks per chain length, with no down-set table stored.  They are
defined in circpeaks.poset_core, in integer arithmetic only, and
re-exported here.
The f-polynomial can be rebuilt from the chain counts alone, in integers:
_f_polynomial_from_counts, the kernel of the registry check
chains/fpolynomial-from-chains.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from itertools import combinations
from math import factorial

from .exact_algebra import ExactPoly, multinomial
# Re-exported from the integer-only face poset, which defines them.
from .poset_core import chain_oracle, multichain_oracle
# Re-exported from the integer core, which defines them.
from .tables import (
    _shift_down,
    chain_counts,
    exact_quotient,
    face_table,
    max_peak_count,
    zeta,
    zeta_values,
)


def zeta_polynomial(n: int) -> ExactPoly:
    """Z(P_n, i) as a polynomial in i: the f-vector polynomial at i - 1;
    the oracle is poly_shift(ExactPoly(face_table(n)))."""
    return ExactPoly(_shift_down(face_table(n)))


def _compositions(total: int, mins: list[int]) -> Iterator[tuple[int, ...]]:
    """Every tuple of len(mins) parts with sum total, each at least its min.

    Stars and bars: k - 1 bars among spare + k - 1 slots, spare = total -
    sum(mins), split the spare into k parts, so only the compositions
    themselves are visited, in lexicographic order.
    """
    k = len(mins)
    spare = total - sum(mins)
    if spare < 0:
        return
    for bars in combinations(range(spare + k - 1), k - 1):
        ends = (*bars, spare + k - 1)
        yield tuple([e - s - 1 + m for s, e, m in zip((-1, *bars), ends, mins)])


def chain_count_formula(n: int, i: int) -> int:
    """d_{n,i} by the multinomial composition sum, evaluated literally.

    Sum over (d_1, ..., d_{i+1}) with sum = n, d_1 >= 0, middle parts >= 1
    and d_{i+1} >= n - floor((n-1)/2); the weight (2 d_{i+1} - n)/n is not
    clamped.  The integer sum of multinomial * (2 d_{i+1} - n) is divided
    by n once, exactly, or NonIntegralError is raised.  It has C(D+1, i)
    terms, D = floor((n-1)/2), so its cost over all i grows exponentially
    in n: production code uses chain_counts, and this sum is the oracle it
    is checked against.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    if i < 1:
        raise ValueError("i must be >= 1")
    mins = [0] + [1] * (i - 1) + [n - max_peak_count(n)]
    total = sum(multinomial(parts) * (2 * parts[-1] - n) for parts in _compositions(n, mins))
    return exact_quotient(total, n, f"chain_count_formula({n}, {i})")


def _f_polynomial_from_counts(n: int, count: Callable[[int, int], int]) -> ExactPoly:
    """Rebuild P_n(x) from the chain counts d_{n,i} = count(n, i) alone.

    P_n(x) = sum_{i=2}^{D+2} x^(D+2-i)/(i-2)! * prod_{j=1}^{i-2}(1-jx) * d_{n,i-1}.
    Term i is scaled by top!/(i-2)!, and the sum divided by top! exactly."""
    top = max_peak_count(n)
    scale = factorial(top)
    acc = ExactPoly(())
    for i in range(2, top + 3):
        d = count(n, i - 1)
        if d == 0:
            continue
        term = ExactPoly.constant(d * (scale // factorial(i - 2)))
        for j in range(1, i - 1):
            term = term * ExactPoly((1, -j))
        shift = [0] * (top + 2 - i) + [1]
        acc = acc + term * ExactPoly(shift)
    return ExactPoly(exact_quotient(c, scale, f"coefficient {k} of the f-polynomial of n={n}")
                     for k, c in enumerate(acc.coeffs))
