"""Realizable circular-peak sets and the Dyck-path left-factor bijection.

A set S = {i_1 < i_2 < ... < i_k} inside [n] is realizable as a circular
peak set iff i_j >= 2j + 1 for every j.  The map to words over {U, D}
(w_i = D iff i+1 in S) is a bijection onto left factors of Dyck paths of
length n-1.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import comb
from operator import index

from .perm_core import Permutation, ResourceLimitError
from .poset_core import _first_violation_sorted  # the criterion, on ascending tuples
from .record import Record, set_field
from .tables import max_peak_count  # re-exported from the integer core


class InvalidPeakSetError(ValueError):
    """Raised when a peak set violates the realizability criterion.

    Carries the smallest violating one-based index j together with the
    offending element and the bound 2j+1 it fails to reach.
    """

    def __init__(self, n: int, elements, j: int, element: int, bound: int):
        self.n = n
        self.elements = tuple(elements)
        self.j = j
        self.element = element
        self.bound = bound
        super().__init__(
            f"{self.elements} is not a circular peak set for n={n}: "
            f"element #{j} is {element} < {bound}"
        )


class DyckFormatError(ValueError):
    """Raised for a malformed Dyck-prefix word."""


class PeakSet(Record):
    """A candidate face: ascending elements inside an ambient [n].

    May be constructed invalid; is_valid decides realizability.
    """

    __slots__ = ("n", "elements")
    n: int
    elements: tuple[int, ...]

    def __init__(self, n: int, elements=()):
        n = index(n)
        elems = tuple(sorted(set(map(index, elements))))
        if n < 1:
            raise ValueError("ambient size must be >= 1")
        if elems and (elems[0] < 1 or elems[-1] > n):
            raise ValueError(f"elements {elems} not inside [{n}]")
        set_field(self, "n", n)
        set_field(self, "elements", elems)


class DyckPrefix(Record):
    """A word over {U, D} whose every prefix has #U >= #D."""

    __slots__ = ("letters",)
    letters: str

    def __init__(self, letters: str):
        height = 0
        for ch in letters:
            if ch == "U":
                height += 1
            elif ch == "D":
                height -= 1
            else:
                raise DyckFormatError(f"letter {ch!r} is not U or D")
            if height < 0:
                raise DyckFormatError(f"{letters!r} is not a left factor (dips below 0)")
        set_field(self, "letters", letters)


def is_valid(n: int, s: PeakSet | object) -> bool:
    """True iff i_j >= 2j+1 for every j, i.e. CP_n(s) is nonempty."""
    n = index(n)
    elems = s.elements if isinstance(s, PeakSet) else sorted(set(s))
    if elems and elems[-1] > n:
        return False
    return _first_violation_sorted(elems) is None


def _require_valid(s: PeakSet) -> None:
    if not isinstance(s, PeakSet):
        raise TypeError(f"expected a PeakSet, got {type(s).__name__}")
    v = _first_violation_sorted(s.elements)
    if v is not None:
        raise InvalidPeakSetError(s.n, s.elements, *v)


def witness(n: int, s: PeakSet) -> Permutation:
    """A permutation whose circular peak set is exactly s.

    Interleaves the non-peak values below i_k with the peaks, then appends
    i_k+1, ..., n; the empty set yields the identity.
    """
    if isinstance(s, PeakSet) and s.n != n:
        s = PeakSet(n, s.elements)
    _require_valid(s)
    if not s.elements:
        return Permutation.identity(n)
    peaks = s.elements
    top = peaks[-1]
    members = set(peaks)
    rest = [v for v in range(1, top + 1) if v not in members]
    vals: list[int] = []
    for j, p in enumerate(peaks):
        vals.append(rest[j])
        vals.append(p)
    vals.extend(rest[len(peaks):])
    vals.extend(range(top + 1, n + 1))
    return Permutation(vals)


def to_dyck(s: PeakSet) -> DyckPrefix:
    """The length n-1 word with w_i = D iff i+1 in s."""
    _require_valid(s)
    word = bytearray(b"U" * (s.n - 1))
    for e in s.elements:  # 3 <= e <= n, so w_{e-1} is a letter of the word
        word[e - 2] = ord("D")
    return DyckPrefix(word.decode())


def from_dyck(n: int, w: DyckPrefix | str) -> PeakSet:
    """Inverse of to_dyck; the word must have length n-1."""
    if not isinstance(w, DyckPrefix):
        w = DyckPrefix(w)
    if len(w.letters) != n - 1:
        raise DyckFormatError(f"word length {len(w.letters)} != n-1 = {n - 1}")
    # w_i = D puts i+1 in the set, i = 1..n-1
    return PeakSet(n, [i for i, ch in enumerate(w.letters, start=2) if ch == "D"])


def count_valid(n: int) -> int:
    """|P_n| = C(n-1, floor((n-1)/2)), the central binomial number."""
    if n < 3:
        raise ValueError("n must be >= 3")
    return comb(n - 1, (n - 1) // 2)


# ---------------------------------------------------------------------------
# brute-force left-factor enumeration (test oracle)

LEFT_FACTOR_LENGTH_CAP = 20


def enumerate_left_factors(length: int) -> Iterator[str]:
    """An iterator over all left factors of the given length, in
    lexicographic order (D < U), which is the order of sorted().

    A depth-first walk on an explicit stack: it holds one pending sibling
    per level, so it needs O(length) words at a time, not a whole level of
    the tree.  A bad length raises here, not at the first next().
    """
    if length < 0:
        raise ValueError(f"length must be >= 0 (got {length})")
    if length > LEFT_FACTOR_LENGTH_CAP:
        raise ResourceLimitError(
            f"left-factor enumeration capped at length {LEFT_FACTOR_LENGTH_CAP}"
        )
    return _left_factors(length)


def _left_factors(length: int) -> Iterator[str]:
    if length == 0:
        yield ""
        return
    last = length - 1  # a word of this length yields its one or two children
    stack = [("", 0)]  # (word, height); the top is the next word in order
    pop, push = stack.pop, stack.append
    while stack:
        w, h = pop()
        if len(w) == last:
            if h:
                yield w + "D"
            yield w + "U"
        else:
            push((w + "U", h + 1))
            if h:
                push((w + "D", h - 1))
