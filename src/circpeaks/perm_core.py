"""Permutations of [n] and their circular peak / descent statistics.

A "circular peak" of sigma is a value sigma(i) with
sigma(i-1) < sigma(i) > sigma(i+1) at an interior position i; despite the
name there is no wrap-around.  A circular descent is a value sigma(i) with
sigma(i) > sigma(i+1).  Sets are returned as strictly ascending tuples.

The exhaustive enumerator over S_n is the oracle used everywhere to test
the closed-form results; it is capped at n <= 10.
"""

from __future__ import annotations

from itertools import permutations
from operator import index

from .record import Record, set_field
from .tables import ResourceLimitError  # re-exported from the integer core

PERMUTATION_CAP = 10


class Permutation(Record):
    """One-indexed permutation; values is (sigma(1), ..., sigma(n))."""

    __slots__ = ("values",)
    values: tuple[int, ...]

    def __init__(self, values):
        # From a list, so the tuple is allocated at its exact size: tuple()
        # of a map, which has no length hint, resizes a 10-slot tuple, and
        # each such tuple parks on the free list of its final size.
        vals = tuple([*map(index, values)])
        n = len(vals)
        if sorted(vals) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of [{n}]: {vals}")
        set_field(self, "values", vals)

    @property
    def n(self) -> int:
        return len(self.values)

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(range(1, n + 1))


def _peaks(v: tuple[int, ...]) -> tuple[int, ...]:
    """Values v[i] with v[i-1] < v[i] > v[i+1], ascending."""
    peaks = []
    if len(v) > 2:
        a, b = v[0], v[1]
        for c in v[2:]:  # the window (a, b, c) slides along v
            if a < b > c:
                peaks.append(b)
            a, b = b, c
        peaks.sort()
    return tuple(peaks)


def circular_peak_set(sigma: Permutation) -> tuple[int, ...]:
    """Values sigma(i) with sigma(i-1) < sigma(i) > sigma(i+1), ascending."""
    return _peaks(sigma.values)


def circular_descent_set(sigma: Permutation) -> tuple[int, ...]:
    """Values sigma(i) with sigma(i) > sigma(i+1), ascending."""
    v = sigma.values
    return tuple(sorted(v[i] for i in range(len(v) - 1) if v[i] > v[i + 1]))


def _check_cap(n: int) -> None:
    if n > PERMUTATION_CAP:
        raise ResourceLimitError(
            f"exhaustive S_n enumeration capped at n <= {PERMUTATION_CAP} (got n={n})"
        )


def enumerate_cp_class(n: int, s) -> list[Permutation]:
    """All sigma in S_n with CP(sigma) = s, in lexicographic order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_cap(n)
    target = tuple(sorted(set(map(index, s))))
    if any(v < 1 or v > n for v in target):
        raise ValueError(f"set {target} is not a subset of [{n}]")
    return [Permutation(vals) for vals in permutations(range(1, n + 1))
            if _peaks(vals) == target]


def cp_class_size(n: int, s) -> int:
    return len(enumerate_cp_class(n, s))


def cp_class_table(n: int) -> dict[tuple[int, ...], int]:
    """Map CP set -> class size over all of S_n, from one sweep of S_{n-1}.

    A permutation of [n] is a first value f and then a permutation r of
    [n-1] with its values v >= f raised by one.  That keeps the peaks of
    r, raised, and adds r[0] + 1 iff r[0] >= f and r[0] > r[1].  So the
    sweep counts each pair (peaks of r, r[0] if r[0] > r[1] else 0), and
    each f maps the counts onto peak bitmasks (bit v set iff v is a peak).
    With f ascending and the pairs in the order of their first r, the CP
    sets come in the order of their first permutation in lexicographic
    order, as in a plain scan of S_n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_cap(n)
    starts: dict[tuple[tuple[int, ...], int], int] = {}
    for r in permutations(range(1, n)):
        key = (_peaks(r), r[0] if n > 2 and r[0] > r[1] else 0)
        starts[key] = starts.get(key, 0) + 1
    pairs = [(sum(1 << v for v in peaks), first, size)
             for (peaks, first), size in starts.items()]
    counts: dict[int, int] = {}
    for f in range(1, n + 1):
        low = (1 << f) - 1
        for mask, first, size in pairs:
            mask = mask & low | (mask >> f) << (f + 1)
            if first >= f:
                mask |= 1 << (first + 1)
            counts[mask] = counts.get(mask, 0) + size
    return {tuple([v for v in range(3, n + 1) if mask >> v & 1]): size
            for mask, size in counts.items()}
