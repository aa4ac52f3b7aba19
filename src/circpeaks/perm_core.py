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

from .record import Record, set_field
from .tables import ResourceLimitError  # re-exported from the integer core

PERMUTATION_CAP = 10


class Permutation(Record):
    """One-indexed permutation; values is (sigma(1), ..., sigma(n))."""

    __slots__ = ("values",)
    values: tuple[int, ...]

    def __init__(self, values):
        vals = tuple(map(int, values))
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
    return tuple(sorted(v[i] for i in range(1, len(v) - 1) if v[i - 1] < v[i] > v[i + 1]))


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
    target = tuple(sorted(set(int(v) for v in s)))
    if any(v < 1 or v > n for v in target):
        raise ValueError(f"set {target} is not a subset of [{n}]")
    return [Permutation(vals) for vals in permutations(range(1, n + 1))
            if _peaks(vals) == target]


def cp_class_size(n: int, s) -> int:
    return len(enumerate_cp_class(n, s))


def cp_class_table(n: int) -> dict[tuple[int, ...], int]:
    """Map CP set -> class size over all of S_n (single sweep).

    The sweep keys each permutation by the bitmask of its peak values (bit
    v set iff v is a peak), which needs no sort, and turns each of the
    distinct masks into its ascending tuple once, at the end.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_cap(n)
    counts: dict[int, int] = {}
    interior = range(1, n - 1)
    for vals in permutations(range(1, n + 1)):
        mask = 0
        for i in interior:
            v = vals[i]
            if vals[i - 1] < v > vals[i + 1]:
                mask |= 1 << v
        counts[mask] = counts.get(mask, 0) + 1
    return {tuple(v for v in range(3, n + 1) if mask >> v & 1): size
            for mask, size in counts.items()}
